(** Columnar batches: the vectorized engine's physical representation.

    A batch holds one column per schema attribute.  Column data is stored
    unboxed per scalar type ([int array], [float array], ...) with an
    optional validity mask ([nulls.(i)] = the value at physical row [i] is
    NULL); a column whose values do not all match its declared type (or
    that mixes types) falls back to a boxed [Value.t array], which every
    consumer handles, so the representation is total over any row table.

    The period encoding's [Abegin]/[Aend] attributes are ordinary trailing
    [TInt] columns and therefore come out as dense [int array]s — exactly
    the layout the temporal sweeps want.

    Row visibility is a {e selection vector}: [sel = Some s] means the
    batch's logical rows are the physical rows [s.(0), s.(1), ...] in that
    order.  Filters narrow the selection instead of materializing; payload
    columns are only gathered when an operator needs dense data
    ({!compact}) or at the row boundary ({!to_rows}).  A table segment
    is a batch: rows written to a table are stored as {!of_rows} stores
    them, and the table boxes rows from its batches only when asked,
    keeping none. *)

open Tkr_relation

type data =
  | Ints of int array
  | Floats of float array
  | Bools of bool array
  | Strs of string array
  | Boxed of Value.t array  (** fallback: values kept boxed *)

type col = { data : data; nulls : bool array option }

type t = {
  schema : Schema.t;
  nrows : int;  (** physical row count; every column has this length *)
  cols : col array;
  sel : int array option;
      (** logical rows as physical indices, in logical order *)
}

let schema b = b.schema
let length b = match b.sel with Some s -> Array.length s | None -> b.nrows

let[@inline] phys_in (sel : int array option) li =
  match sel with Some s -> s.(li) | None -> li

(** Physical index of logical row [i]. *)
let phys b i = phys_in b.sel i

(* whether a validity mask marks row [i] NULL *)
let[@inline] null_in (nulls : bool array option) i =
  match nulls with Some m -> m.(i) | None -> false

let is_null_at (c : col) (i : int) : bool =
  null_in c.nulls i || match c.data with Boxed a -> Value.is_null a.(i) | _ -> false

(** The value at physical row [i], boxed. *)
let value (c : col) (i : int) : Value.t =
  if null_in c.nulls i then Value.Null
  else
    match c.data with
    | Ints a -> Value.Int a.(i)
    | Floats a -> Value.Float a.(i)
    | Bools a -> Value.Bool a.(i)
    | Strs a -> Value.Str a.(i)
    | Boxed a -> a.(i)

(* ---- column construction ---- *)

exception Mismatch

(* the mask [m], or a fresh one of [n] rows, with row [i] set *)
let with_null m n i =
  let m = match m with Some m -> m | None -> Array.make n false in
  m.(i) <- true;
  Some m

(** Build a column of [n] values fetched by [get], stored unboxed when
    every value matches [ty] (NULLs go to the validity mask), boxed
    otherwise. *)
let col_of_values (ty : Value.ty) (n : int) (get : int -> Value.t) : col =
  let nulls = ref None in
  try
    let data =
      match ty with
      | Value.TInt ->
          let a = Array.make n 0 in
          for i = 0 to n - 1 do
            match get i with
            | Value.Int v -> a.(i) <- v
            | Value.Null -> nulls := with_null !nulls n i
            | _ -> raise Mismatch
          done;
          Ints a
      | Value.TFloat ->
          let a = Array.make n 0.0 in
          for i = 0 to n - 1 do
            match get i with
            | Value.Float v -> a.(i) <- v
            | Value.Null -> nulls := with_null !nulls n i
            | _ -> raise Mismatch
          done;
          Floats a
      | Value.TBool ->
          let a = Array.make n false in
          for i = 0 to n - 1 do
            match get i with
            | Value.Bool v -> a.(i) <- v
            | Value.Null -> nulls := with_null !nulls n i
            | _ -> raise Mismatch
          done;
          Bools a
      | Value.TStr ->
          let a = Array.make n "" in
          for i = 0 to n - 1 do
            match get i with
            | Value.Str v -> a.(i) <- v
            | Value.Null -> nulls := with_null !nulls n i
            | _ -> raise Mismatch
          done;
          Strs a
    in
    { data; nulls = !nulls }
  with Mismatch -> { data = Boxed (Array.init n get); nulls = None }

let const_col (v : Value.t) (n : int) : col =
  match v with
  | Value.Null -> { data = Ints (Array.make n 0); nulls = Some (Array.make n true) }
  | Value.Int x -> { data = Ints (Array.make n x); nulls = None }
  | Value.Float x -> { data = Floats (Array.make n x); nulls = None }
  | Value.Bool x -> { data = Bools (Array.make n x); nulls = None }
  | Value.Str x -> { data = Strs (Array.make n x); nulls = None }

(* ---- gather / compact ---- *)

(* [len] (default: all of [idx]) gathers the rows [idx.(0 .. len-1)],
   so a scratch buffer longer than its contents can serve as [idx].  One
   monomorphic loop per element type, each writing the rows [idx.(0 ..
   n-1)] of [a] to [out.(off ..)]: ints and bools store without a write
   barrier, floats stay unboxed, and no closure runs per row.  Reads are
   bounds-checked. *)
let gather_len ?len (idx : int array) : int =
  match len with
  | None -> Array.length idx
  | Some n ->
      if n < 0 || n > Array.length idx then invalid_arg "Batch.gather: len";
      n

let gather_ints (a : int array) (idx : int array) n (out : int array) off =
  for k = 0 to n - 1 do
    out.(off + k) <- a.(idx.(k))
  done

let gather_floats (a : float array) (idx : int array) n (out : float array) off =
  for k = 0 to n - 1 do
    out.(off + k) <- a.(idx.(k))
  done

let gather_bools (a : bool array) (idx : int array) n (out : bool array) off =
  for k = 0 to n - 1 do
    out.(off + k) <- a.(idx.(k))
  done

let gather_strs (a : string array) (idx : int array) n (out : string array) off =
  for k = 0 to n - 1 do
    out.(off + k) <- a.(idx.(k))
  done

let gather_boxed (a : Value.t array) (idx : int array) n (out : Value.t array) off =
  for k = 0 to n - 1 do
    out.(off + k) <- a.(idx.(k))
  done

(* The data of an [n]-row column made from the columns [cs]: of the
   element type they all store, boxed when any is boxed or they differ.
   {!gather_parts}'s rule for combining columns. *)
let blank_data (cs : col array) (n : int) : data =
  let all p = Array.for_all (fun (c : col) -> p c.data) cs in
  if all (function Ints _ -> true | _ -> false) then Ints (Array.make n 0)
  else if all (function Floats _ -> true | _ -> false) then Floats (Array.create_float n)
  else if all (function Bools _ -> true | _ -> false) then Bools (Array.make n false)
  else if all (function Strs _ -> true | _ -> false) then Strs (Array.make n "")
  else Boxed (Array.make n Value.Null)

(* the rows [idx.(0 .. n-1)] of [c] into [out] (made by {!blank_data})
   from row [off]; into boxed data, an unboxed column's cells go boxed,
   NULLs as [Value.Null] *)
let gather_into (c : col) (idx : int array) n (out : data) off =
  match (c.data, out) with
  | Ints a, Ints o -> gather_ints a idx n o off
  | Floats a, Floats o -> gather_floats a idx n o off
  | Bools a, Bools o -> gather_bools a idx n o off
  | Strs a, Strs o -> gather_strs a idx n o off
  | Boxed a, Boxed o -> gather_boxed a idx n o off
  | _, Boxed o ->
      for k = 0 to n - 1 do
        o.(off + k) <- value c idx.(k)
      done
  | _ -> invalid_arg "Batch.gather_into"

let gather_col ?len (c : col) (idx : int array) : col =
  let n = gather_len ?len idx in
  let data = blank_data [| c |] n in
  gather_into c idx n data 0;
  let nulls =
    Option.map
      (fun m ->
        let out = Array.make n false in
        gather_bools m idx n out 0;
        out)
      c.nulls
  in
  { data; nulls }

(** Materialize the selection: same logical rows, dense columns, no
    selection vector. *)
let compact (b : t) : t =
  match b.sel with
  | None -> b
  | Some s ->
      {
        schema = b.schema;
        nrows = Array.length s;
        cols = Array.map (fun c -> gather_col c s) b.cols;
        sel = None;
      }

(** Narrow to the given physical rows (logical order = array order). *)
let with_sel (b : t) (s : int array) : t = { b with sel = Some s }

let of_cols (schema : Schema.t) (nrows : int) (cols : col array) : t =
  { schema; nrows; cols; sel = None }

(** A column that no consumer reads: empty, never indexed.  An operator
    told which columns its consumer needs puts it in place of the rest. *)
let placeholder = { data = Ints [||]; nulls = None }

(** Whether column [j] is in [need] ([None]: every column is). *)
let needed (need : int list option) (j : int) : bool =
  match need with None -> true | Some cols -> List.mem j cols

(* ---- row boundary ---- *)

let of_rows (schema : Schema.t) (rows : Tuple.t array) : t =
  let n = Array.length rows in
  let cols =
    Array.init (Schema.arity schema) (fun j ->
        col_of_values (Schema.ty schema j) n (fun i -> Tuple.get rows.(i) j))
  in
  { schema; nrows = n; cols; sel = None }

(** [b] (without a selection) with each column stored as {!of_rows}
    stores its values; a column of the schema's type without a mask is
    kept. *)
let as_of_rows (b : t) : t =
  let col j (c : col) =
    match (c.data, Schema.ty b.schema j, c.nulls) with
    | Ints _, TInt, None | Floats _, TFloat, None | Bools _, TBool, None | Strs _, TStr, None -> c
    | _, ty, _ -> col_of_values ty b.nrows (value c)
  in
  { b with cols = Array.mapi col b.cols }

(* ---- gathers across batches ---- *)

(** [gather_parts ?need schema parts]: one dense batch of, for each
    [(b, idx, k)] of [parts] in turn, the physical rows [idx.(0 .. k-1)]
    of [b], with only the columns in [need] (default: all); the others
    are {!placeholder}s.  A column is stored as {!blank_data} makes it
    from the parts' columns, with a validity mask when any part has one.
    So [idx] may be a longer buffer. *)
let gather_parts ?need (schema : Schema.t) (parts : (t * int array * int) array) : t =
  let n = Array.fold_left (fun acc (_, _, k) -> acc + k) 0 parts in
  let col j =
    let cs = Array.map (fun ((b : t), _, _) -> b.cols.(j)) parts in
    if Array.length parts = 0 then col_of_values (Schema.ty schema j) 0 (fun _ -> Value.Null)
    else begin
      let data = blank_data cs n in
      let nulls =
        if Array.for_all (fun (c : col) -> c.nulls = None) cs then None
        else Some (Array.make n false)
      in
      ignore
        (Array.fold_left
           (fun off ((b : t), idx, k) ->
             let c = b.cols.(j) in
             gather_into c idx k data off;
             (match (c.nulls, nulls) with
             | Some m, Some out -> gather_bools m idx k out off
             | _ -> ());
             off + k)
           0 parts);
      { data; nulls }
    end
  in
  let cols =
    Array.init (Schema.arity schema) (fun j -> if needed need j then col j else placeholder)
  in
  { schema; nrows = n; cols; sel = None }

(** The logical rows, boxed, in logical order: the tuples are made
    first, then filled one column at a time by a loop of the column's
    element type. *)
let to_rows (b : t) : Tuple.t array =
  let n = length b and k = Array.length b.cols and sel = b.sel in
  let rows = Array.make n [||] in
  for li = 0 to n - 1 do
    rows.(li) <- Array.make k Value.Null
  done;
  Array.iteri
    (fun j (c : col) ->
      let nulls = c.nulls in
      match c.data with
      | Ints a ->
          for li = 0 to n - 1 do
            let i = phys_in sel li in
            if not (null_in nulls i) then rows.(li).(j) <- Value.Int a.(i)
          done
      | Floats a ->
          for li = 0 to n - 1 do
            let i = phys_in sel li in
            if not (null_in nulls i) then rows.(li).(j) <- Value.Float a.(i)
          done
      | Bools a ->
          for li = 0 to n - 1 do
            let i = phys_in sel li in
            if not (null_in nulls i) then rows.(li).(j) <- Value.Bool a.(i)
          done
      | Strs a ->
          for li = 0 to n - 1 do
            let i = phys_in sel li in
            if not (null_in nulls i) then rows.(li).(j) <- Value.Str a.(i)
          done
      | Boxed a ->
          for li = 0 to n - 1 do
            let i = phys_in sel li in
            if not (null_in nulls i) then rows.(li).(j) <- a.(i)
          done)
    b.cols;
  rows

(** [Value.compare] of the values at physical rows [i] and [j], read
    from the column's element type: NULL first. *)
let compare_at (c : col) i j =
  let ni = is_null_at c i and nj = is_null_at c j in
  if ni || nj then Bool.compare nj ni
  else
    match c.data with
    | Ints a -> Int.compare a.(i) a.(j)
    | Floats a -> Float.compare a.(i) a.(j)
    | Bools a -> Bool.compare a.(i) a.(j)
    | Strs a -> String.compare a.(i) a.(j)
    | Boxed a -> Value.compare a.(i) a.(j)

(** The logical rows' physical indices in the order the row engine's
    ORDER BY gives their rows: [Array.sort] by each key ([(column,
    descending)]) under {!Value.compare}, then by the whole row
    ({!Tuple.compare}).  [Array.sort] makes the same moves on the
    indices as on the rows, so tied rows come out in the same order. *)
let sort_order (keys : (int * bool) list) (b : t) : int array =
  let perm = Array.init (length b) (phys b) in
  let rec by_keys i j = function
    | [] -> whole i j 0
    | (col, desc) :: rest ->
        let c = compare_at b.cols.(col) i j in
        let c = if desc then -c else c in
        if c <> 0 then c else by_keys i j rest
  and whole i j k =
    if k = Array.length b.cols then 0
    else
      let c = compare_at b.cols.(k) i j in
      if c <> 0 then c else whole i j (k + 1)
  in
  Array.sort (fun i j -> by_keys i j keys) perm;
  perm

(** The logical rows of [a], then those of [b], dense; the schemas must
    be union-compatible, the left schema names the result.  A column
    whose two sides store one element type is their arrays appended,
    with a validity mask when either has one; any other is boxed, its
    NULLs as [Value.Null], without a mask. *)
let append (a : t) (b : t) : t =
  let a = compact a and b = compact b in
  let mask n = function Some m -> m | None -> Array.make n false in
  let col (x : col) (y : col) =
    let nulls =
      match (x.nulls, y.nulls) with
      | None, None -> None
      | m, n -> Some (Array.append (mask a.nrows m) (mask b.nrows n))
    in
    match (x.data, y.data) with
    | Ints p, Ints q -> { data = Ints (Array.append p q); nulls }
    | Floats p, Floats q -> { data = Floats (Array.append p q); nulls }
    | Bools p, Bools q -> { data = Bools (Array.append p q); nulls }
    | Strs p, Strs q -> { data = Strs (Array.append p q); nulls }
    | _ ->
        let boxed n (c : col) = Array.init n (value c) in
        { data = Boxed (Array.append (boxed a.nrows x) (boxed b.nrows y)); nulls = None }
  in
  { a with nrows = a.nrows + b.nrows; cols = Array.map2 col a.cols b.cols }

(** The (b, e) period columns of a batch under the trailing-period
    encoding, as dense int arrays indexed by {e physical} row.
    @raise Invalid_argument like the row engine when a period value is not
    an integer (scans logical rows in order, so the failing row is the
    same one [Ops.period_of_row] would reject). *)
let period_arrays (b : t) : int array * int array =
  let k = Array.length b.cols in
  if k < 2 then invalid_arg "engine: malformed period encoding (non-integer period)";
  let extract (c : col) : int array =
    match (c.data, c.nulls) with
    | Ints a, None -> a
    | _ ->
        let n = length b in
        let out = Array.make b.nrows 0 in
        for li = 0 to n - 1 do
          let i = phys b li in
          match value c i with
          | Value.Int v -> out.(i) <- v
          | _ ->
              invalid_arg
                "engine: malformed period encoding (non-integer period)"
        done;
        out
  in
  (extract b.cols.(k - 2), extract b.cols.(k - 1))

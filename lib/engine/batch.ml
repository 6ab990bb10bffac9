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
    ({!compact}) or at the row boundary ({!to_rows}).  A stored table's
    columnar image is made once per table value ({!Table.columnar}):
    built from the rows, or derived from its predecessor's ({!derive}). *)

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

(** Physical index of logical row [i]. *)
let phys b i = match b.sel with Some s -> s.(i) | None -> i

let is_null_at (c : col) (i : int) : bool =
  (match c.nulls with Some m -> m.(i) | None -> false)
  ||
  match c.data with Boxed a -> Value.is_null a.(i) | _ -> false

(** The value at physical row [i], boxed. *)
let value (c : col) (i : int) : Value.t =
  if match c.nulls with Some m -> m.(i) | None -> false then Value.Null
  else
    match c.data with
    | Ints a -> Value.Int a.(i)
    | Floats a -> Value.Float a.(i)
    | Bools a -> Value.Bool a.(i)
    | Strs a -> Value.Str a.(i)
    | Boxed a -> a.(i)

(* ---- column construction ---- *)

(** Build a column of [n] values fetched by [get], stored unboxed when
    every value matches [ty] (NULLs go to the validity mask), boxed
    otherwise. *)
let col_of_values (ty : Value.ty) (n : int) (get : int -> Value.t) : col =
  let nulls = ref None in
  let set_null i =
    let m =
      match !nulls with
      | Some m -> m
      | None ->
          let m = Array.make n false in
          nulls := Some m;
          m
    in
    m.(i) <- true
  in
  let box () = { data = Boxed (Array.init n get); nulls = None } in
  let exception Mismatch in
  try
    let data =
      match ty with
      | Value.TInt ->
          let a = Array.make n 0 in
          for i = 0 to n - 1 do
            match get i with
            | Value.Int v -> a.(i) <- v
            | Value.Null -> set_null i
            | _ -> raise Mismatch
          done;
          Ints a
      | Value.TFloat ->
          let a = Array.make n 0.0 in
          for i = 0 to n - 1 do
            match get i with
            | Value.Float v -> a.(i) <- v
            | Value.Null -> set_null i
            | _ -> raise Mismatch
          done;
          Floats a
      | Value.TBool ->
          let a = Array.make n false in
          for i = 0 to n - 1 do
            match get i with
            | Value.Bool v -> a.(i) <- v
            | Value.Null -> set_null i
            | _ -> raise Mismatch
          done;
          Bools a
      | Value.TStr ->
          let a = Array.make n "" in
          for i = 0 to n - 1 do
            match get i with
            | Value.Str v -> a.(i) <- v
            | Value.Null -> set_null i
            | _ -> raise Mismatch
          done;
          Strs a
    in
    { data; nulls = !nulls }
  with Mismatch -> box ()

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
   monomorphic loop per element type: ints and bools store without a
   write barrier, floats stay unboxed, and no closure runs per row.
   Reads are bounds-checked. *)
let gather_len ?len (idx : int array) : int =
  match len with
  | None -> Array.length idx
  | Some n ->
      if n < 0 || n > Array.length idx then invalid_arg "Batch.gather: len";
      n

let gather_ints (a : int array) (idx : int array) (n : int) : int array =
  let out = Array.make n 0 in
  for k = 0 to n - 1 do
    out.(k) <- a.(idx.(k))
  done;
  out

let gather_floats (a : float array) (idx : int array) (n : int) : float array
    =
  let out = Array.create_float n in
  for k = 0 to n - 1 do
    out.(k) <- a.(idx.(k))
  done;
  out

let gather_bools (a : bool array) (idx : int array) (n : int) : bool array =
  let out = Array.make n false in
  for k = 0 to n - 1 do
    out.(k) <- a.(idx.(k))
  done;
  out

let gather_strs (a : string array) (idx : int array) (n : int) : string array
    =
  let out = Array.make n "" in
  for k = 0 to n - 1 do
    out.(k) <- a.(idx.(k))
  done;
  out

let gather_boxed (a : Value.t array) (idx : int array) (n : int) :
    Value.t array =
  let out = Array.make n Value.Null in
  for k = 0 to n - 1 do
    out.(k) <- a.(idx.(k))
  done;
  out

let gather_data ?len (d : data) (idx : int array) : data =
  let n = gather_len ?len idx in
  match d with
  | Ints a -> Ints (gather_ints a idx n)
  | Floats a -> Floats (gather_floats a idx n)
  | Bools a -> Bools (gather_bools a idx n)
  | Strs a -> Strs (gather_strs a idx n)
  | Boxed a -> Boxed (gather_boxed a idx n)

let gather_col ?len (c : col) (idx : int array) : col =
  let n = gather_len ?len idx in
  {
    data = gather_data ~len:n c.data idx;
    nulls = Option.map (fun m -> gather_bools m idx n) c.nulls;
  }

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

(* ---- successor images ---- *)

(* The kept cells of a successor column of [prefix + len] cells (the
   map [src] may be a longer buffer): the cells below [prefix + skip]
   are [a]'s in place, copied in bulk; cell [prefix + k] is
   [a.(src.(k))] where [src.(k) >= 0], and
   fresh cells ([src.(k) < 0]) are left for the caller to fill.  One
   monomorphic loop per element type, as in the gathers above. *)
let kept_ints (a : int array) ~prefix ~skip ~len (src : int array) : int array =
  let n = prefix + len and m = Array.length a in
  let out = if n <= m then Array.sub a 0 n else Array.append a (Array.make (n - m) 0) in
  for k = skip to len - 1 do
    let s = src.(k) in
    if s >= 0 then out.(prefix + k) <- a.(s)
  done;
  out

let kept_floats (a : float array) ~prefix ~skip ~len (src : int array) : float array =
  let n = prefix + len and m = Array.length a in
  let out =
    if n <= m then Array.sub a 0 n else Array.append a (Array.make (n - m) 0.0)
  in
  for k = skip to len - 1 do
    let s = src.(k) in
    if s >= 0 then out.(prefix + k) <- a.(s)
  done;
  out

let kept_bools (a : bool array) ~prefix ~skip ~len (src : int array) : bool array =
  let n = prefix + len and m = Array.length a in
  let out =
    if n <= m then Array.sub a 0 n else Array.append a (Array.make (n - m) false)
  in
  for k = skip to len - 1 do
    let s = src.(k) in
    if s >= 0 then out.(prefix + k) <- a.(s)
  done;
  out

let kept_strs (a : string array) ~prefix ~skip ~len (src : int array) : string array =
  let n = prefix + len and m = Array.length a in
  let out = if n <= m then Array.sub a 0 n else Array.append a (Array.make (n - m) "") in
  for k = skip to len - 1 do
    let s = src.(k) in
    if s >= 0 then out.(prefix + k) <- a.(s)
  done;
  out

(** The fresh rows of a successor's row map (see {!derive}): the rows
    [prefix + k] with [src.(k) < 0], ascending, over the first [len]
    entries of [src] (default: all). *)
let fresh_rows ?len ~prefix (src : int array) : int array =
  let len = Option.value len ~default:(Array.length src) in
  let k = ref 0 in
  for j = 0 to len - 1 do
    if src.(j) < 0 then incr k
  done;
  let f = Array.make !k 0 in
  k := 0;
  for j = 0 to len - 1 do
    if src.(j) < 0 then begin
      f.(!k) <- prefix + j;
      incr k
    end
  done;
  f

(* One successor column: the kept cells of [c], then the fresh rows'
   values; [None] when [c] is boxed or a fresh value does not fit it. *)
let derive_col (c : col) ~prefix ~skip ~len ~(src : int array)
    ~(fresh : int array) (row : int -> Tuple.t) (j : int) : col option =
  let n = prefix + len in
  let exception Mismatch in
  let mask =
    ref (Option.map (fun m -> kept_bools m ~prefix ~skip ~len src) c.nulls)
  in
  (* a fresh cell: [true] when it holds NULL (its data keeps the
     default, as {!col_of_values} leaves it) *)
  let fresh_null i =
    let null = Value.is_null (Tuple.get (row i) j) in
    (match !mask with
    | Some m -> m.(i) <- null
    | None ->
        if null then begin
          let m = Array.make n false in
          m.(i) <- true;
          mask := Some m
        end);
    null
  in
  try
    let data =
      match c.data with
      | Ints a ->
          let out = kept_ints a ~prefix ~skip ~len src in
          Array.iter
            (fun i ->
              if fresh_null i then out.(i) <- 0
              else
                match Tuple.get (row i) j with
                | Value.Int v -> out.(i) <- v
                | _ -> raise Mismatch)
            fresh;
          Ints out
      | Floats a ->
          let out = kept_floats a ~prefix ~skip ~len src in
          Array.iter
            (fun i ->
              if fresh_null i then out.(i) <- 0.0
              else
                match Tuple.get (row i) j with
                | Value.Float v -> out.(i) <- v
                | _ -> raise Mismatch)
            fresh;
          Floats out
      | Bools a ->
          let out = kept_bools a ~prefix ~skip ~len src in
          Array.iter
            (fun i ->
              if fresh_null i then out.(i) <- false
              else
                match Tuple.get (row i) j with
                | Value.Bool v -> out.(i) <- v
                | _ -> raise Mismatch)
            fresh;
          Bools out
      | Strs a ->
          let out = kept_strs a ~prefix ~skip ~len src in
          Array.iter
            (fun i ->
              if fresh_null i then out.(i) <- ""
              else
                match Tuple.get (row i) j with
                | Value.Str v -> out.(i) <- v
                | _ -> raise Mismatch)
            fresh;
          Strs out
      | Boxed _ -> raise Mismatch
    in
    (* a mask exists iff some row is NULL *)
    let nulls =
      match !mask with
      | Some m when Array.exists Fun.id m -> Some m
      | _ -> None
    in
    Some { data; nulls }
  with Mismatch -> None

(** [derive base ~prefix ~src row]: [of_rows (schema base) rows] for
    the [prefix + Array.length src] rows [row 0], [row 1], ..., computed
    from [base], the dense image of an earlier table value with the same
    schema.  The rows below [prefix] are [base]'s rows in place; row
    [prefix + k] is [base]'s row [src.(k)] unchanged, or fresh where
    [src.(k) < 0].  Each column is a typed gather of its base column (a
    bulk copy over the identity prefix, which every INSERT leaves); only
    the fresh rows are read through [row].  A column whose base column is boxed, or that a fresh
    value does not fit, is built from all the rows by {!col_of_values}.
    A successor's image passes its predecessor's image and whole row map;
    an index probe read through a delta passes its candidates' map, so
    it gathers only them, and its consumer's [need] (default: every
    column), so it gathers only those columns: the others are
    {!placeholder}s.  [len] (default: all of [src]) reads the map from
    the first [len] cells of a longer buffer. *)
let derive ?need ?len (base : t) ~(prefix : int) ~(src : int array)
    (row : int -> Tuple.t) : t =
  let len = Option.value len ~default:(Array.length src) in
  let n = prefix + len in
  (* the entries that continue the identity prefix need no gather *)
  let skip =
    let k = ref 0 in
    while !k < len && src.(!k) = prefix + !k do
      incr k
    done;
    !k
  in
  let fresh = fresh_rows ~len ~prefix src in
  let schema = base.schema in
  let cols =
    Array.mapi
      (fun j c ->
        if not (needed need j) then placeholder
        else
          match derive_col c ~prefix ~skip ~len ~src ~fresh row j with
          | Some c -> c
          | None ->
              col_of_values (Schema.ty schema j) n (fun i -> Tuple.get (row i) j))
      base.cols
  in
  { schema; nrows = n; cols; sel = None }

(** The logical rows, boxed, in logical order. *)
let to_rows (b : t) : Tuple.t array =
  let k = Array.length b.cols in
  Array.init (length b) (fun li ->
      let i = phys b li in
      Tuple.of_array (Array.init k (fun j -> value b.cols.(j) i)))

(** Append two dense batches (compacting as needed); the schemas must be
    union-compatible, the left schema names the result. *)
let append (a : t) (b : t) : t =
  let a = compact a and b = compact b in
  let n = a.nrows + b.nrows in
  let boxed_concat ca cb =
    let get c k = value c k in
    Boxed
      (Array.init n (fun i ->
           if i < a.nrows then get ca i else get cb (i - a.nrows)))
  in
  let concat_data ca cb =
    match (ca.data, cb.data) with
    | Ints x, Ints y -> Ints (Array.append x y)
    | Floats x, Floats y -> Floats (Array.append x y)
    | Bools x, Bools y -> Bools (Array.append x y)
    | Strs x, Strs y -> Strs (Array.append x y)
    | Boxed x, Boxed y -> Boxed (Array.append x y)
    | _ -> boxed_concat ca cb
  in
  let concat_nulls ca cb =
    match (ca.nulls, cb.nulls) with
    | None, None -> None
    | ma, mb ->
        let get m k = match m with Some m -> m.(k) | None -> false in
        Some
          (Array.init n (fun i ->
               if i < a.nrows then get ma i else get mb (i - a.nrows)))
  in
  let cols =
    Array.init (Array.length a.cols) (fun j ->
        let ca = a.cols.(j) and cb = b.cols.(j) in
        match (ca.data, cb.data) with
        | Boxed _, _ | _, Boxed _ ->
            (* boxed side swallows the other; validity lives in the values *)
            { data = boxed_concat ca cb; nulls = None }
        | _ -> { data = concat_data ca cb; nulls = concat_nulls ca cb })
  in
  { schema = a.schema; nrows = n; cols; sel = None }

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

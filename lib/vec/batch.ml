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
    ({!compact}) or at the row boundary ({!to_table}). *)

open Tkr_relation
module Table = Tkr_engine.Table

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

let gather_data (d : data) (idx : int array) : data =
  match d with
  | Ints a -> Ints (Array.map (fun i -> a.(i)) idx)
  | Floats a -> Floats (Array.map (fun i -> a.(i)) idx)
  | Bools a -> Bools (Array.map (fun i -> a.(i)) idx)
  | Strs a -> Strs (Array.map (fun i -> a.(i)) idx)
  | Boxed a -> Boxed (Array.map (fun i -> a.(i)) idx)

let gather_col (c : col) (idx : int array) : col =
  {
    data = gather_data c.data idx;
    nulls = Option.map (fun m -> Array.map (fun i -> m.(i)) idx) c.nulls;
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

(* ---- row boundary ---- *)

let of_rows (schema : Schema.t) (rows : Tuple.t array) : t =
  let n = Array.length rows in
  let cols =
    Array.init (Schema.arity schema) (fun j ->
        col_of_values (Schema.ty schema j) n (fun i -> Tuple.get rows.(i) j))
  in
  { schema; nrows = n; cols; sel = None }

let to_table (b : t) : Table.t =
  let n = length b in
  let k = Array.length b.cols in
  Table.of_array b.schema
    (Array.init n (fun li ->
         let i = phys b li in
         Tuple.of_array (Array.init k (fun j -> value b.cols.(j) i))))

(* The columnar image of a base table is cached on the table value itself:
   tables are immutable (DML installs fresh values), so the memo never
   goes stale.  Concurrent executors may race to columnarize; both compute
   the same image and the last write wins. *)
type Table.memo += Columnar of t

let of_table (tbl : Table.t) : t =
  match Table.memo tbl with
  | Some (Columnar b) -> b
  | _ ->
      let b = of_rows (Table.schema tbl) (Table.rows tbl) in
      Table.set_memo tbl (Columnar b);
      b

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

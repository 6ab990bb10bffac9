(** Physical multiset tables: the engine's row representation of SQL
    (period) relations.  Duplicates are physical rows, matching the paper's
    implementation level where N^T-relations are encoded as SQL multiset
    relations (Section 8). *)

open Tkr_relation

type t = {
  schema : Schema.t;
  rows : Tuple.t array;
  columnar : Batch.t option Atomic.t;
  index : Tkr_idx.Interval.t option option Atomic.t;
      (* the two derived images, filled on first use.  A table value is
         immutable (DML installs a successor), so a filled slot never goes
         stale.  Racing readers may both derive an image; both compute the
         same one and the last write wins. *)
  indexed_before : bool;
      (* some predecessor of this value, reached through {!with_rows},
         had its index built: building this value's index is a rebuild *)
}

let of_array schema rows : t =
  {
    schema;
    rows;
    columnar = Atomic.make None;
    index = Atomic.make None;
    indexed_before = false;
  }

let make schema rows = of_array schema (Array.of_list rows)
let empty schema = of_array schema [||]

let with_rows (t : t) rows : t =
  {
    (of_array t.schema rows) with
    indexed_before = t.indexed_before || Option.is_some (Atomic.get t.index);
  }

let schema t = t.schema
let rows t = t.rows
let cardinality t = Array.length t.rows
let to_list t = Array.to_list t.rows

let columnar (t : t) : Batch.t =
  match Atomic.get t.columnar with
  | Some b -> b
  | None ->
      let b = Batch.of_rows t.schema t.rows in
      Atomic.set t.columnar (Some b);
      b

let of_batch (b : Batch.t) : t = of_array (Batch.schema b) (Batch.to_rows b)

(* the index reads the trailing two columns of the columnar image; it
   exists only when both are null-free int columns *)
let index (t : t) : Tkr_idx.Interval.t option =
  match Atomic.get t.index with
  | Some idx -> idx
  | None ->
      let cols = (columnar t).Batch.cols in
      let k = Array.length cols in
      let idx =
        if k < 2 then None
        else
          match (cols.(k - 2), cols.(k - 1)) with
          | { data = Ints b; nulls = None }, { data = Ints e; nulls = None } ->
              Some (Tkr_idx.Interval.build b e)
          | _ -> None
      in
      Atomic.set t.index (Some idx);
      Tkr_idx.Stats.record_build ~rebuild:t.indexed_before;
      idx

(** Multiset view as an N-relation (tuple -> multiplicity). *)
let to_nrel (t : t) : Tkr_semiring.Nat.t Krel.t =
  let module NR = Krel.Make (Tkr_semiring.Nat) in
  Array.fold_left (fun acc row -> NR.add acc row 1) (NR.empty t.schema) t.rows

(** Expand an N-relation into physical rows (duplicate per multiplicity). *)
let of_nrel (r : Tkr_semiring.Nat.t Krel.t) : t =
  let module NR = Krel.Make (Tkr_semiring.Nat) in
  let buf = ref [] in
  NR.iter
    (fun tuple m ->
      for _ = 1 to m do
        buf := tuple :: !buf
      done)
    r;
  make (Krel.schema r) (List.rev !buf)

(** Bag equality: same rows with the same multiplicities, order-insensitive. *)
let equal_bag (a : t) (b : t) =
  cardinality a = cardinality b
  &&
  let module NR = Krel.Make (Tkr_semiring.Nat) in
  NR.equal (to_nrel a) (to_nrel b)

(** Rows in canonical order, for deterministic output. *)
let sorted_rows (t : t) =
  let r = Array.copy t.rows in
  Array.sort Tuple.compare r;
  r

let pp ppf (t : t) =
  Format.fprintf ppf "@[<v>%a (%d rows)@,%a@]" Schema.pp t.schema
    (cardinality t)
    Fmt.(list ~sep:cut Tuple.pp)
    (Array.to_list (sorted_rows t))

(** Render as an aligned text table (used by the CLI and examples).  Row
    order is preserved (results of ORDER BY queries print as sorted). *)
let to_text ?(max_rows = 50) (t : t) =
  let buf = Buffer.create 256 in
  let headers = Schema.names t.schema in
  let rows = Array.to_list t.rows in
  let shown = List.filteri (fun i _ -> i < max_rows) rows in
  let cells = List.map (fun r -> List.map Value.to_string (Tuple.to_list r)) shown in
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left (fun w row -> max w (String.length (List.nth row i)))
          (String.length h) cells)
      headers
  in
  let pad s w = s ^ String.make (w - String.length s) ' ' in
  let line xs = String.concat " | " (List.map2 pad xs widths) in
  Buffer.add_string buf (line headers);
  Buffer.add_char buf '\n';
  Buffer.add_string buf
    (String.concat "-+-" (List.map (fun w -> String.make w '-') widths));
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      Buffer.add_string buf (line row);
      Buffer.add_char buf '\n')
    cells;
  if List.length rows > max_rows then
    Buffer.add_string buf
      (Printf.sprintf "... (%d more rows)\n" (List.length rows - max_rows));
  Buffer.contents buf

(** Physical multiset tables: the engine's row representation of SQL
    (period) relations.  Duplicates are physical rows, matching the paper's
    implementation level where N^T-relations are encoded as SQL multiset
    relations (Section 8). *)

open Tkr_relation

type column_stats = {
  count : int;
  distinct : int;
  nulls : int;
  min : Value.t option;
  max : Value.t option;
}

type stats = {
  columns : column_stats option Atomic.t array;
  mean_period : float option option Atomic.t;
}
(* per-entry slots inside the statistics slot, each filled on first use *)

(* The built images of an earlier table value, from which a successor
   derives its own ({!successor}). *)
type base = {
  b_columnar : Batch.t;
  b_index : Tkr_idx.Interval.t option;  (* [None]: not built, or none *)
  prefix : int;
  src : int array;
      (* the successor's rows below [prefix] are the base's rows in place;
         row [prefix + k] is base row [src.(k)], unchanged ([-1]: a fresh
         row) *)
}

type t = {
  schema : Schema.t;
  rows : Tuple.t array;
  columnar : Batch.t option Atomic.t;
  index : Tkr_idx.Interval.t option option Atomic.t;
  stats : stats option Atomic.t;
      (* the three derived images, filled on first use.  A table value is
         immutable (DML installs a successor), so a filled slot never goes
         stale.  Racing readers may both derive an image; both compute the
         same one and the last write wins. *)
  base : base option Atomic.t;
      (* what the first uses of the columnar image and the index derive
         from; emptied once both are filled, so no value keeps an earlier
         value's images longer than it needs them *)
  indexed_before : bool;
      (* some predecessor of this value, reached through {!successor},
         had its index built: building this value's index is a rebuild *)
}

let of_array schema rows : t =
  {
    schema;
    rows;
    columnar = Atomic.make None;
    index = Atomic.make None;
    stats = Atomic.make None;
    base = Atomic.make None;
    indexed_before = false;
  }

let make schema rows = of_array schema (Array.of_list rows)
let empty schema = of_array schema [||]

let successor (t : t) ~(rows : Tuple.t array) ~(prefix : int)
    ~(src : int array) : t =
  let n = Array.length t.rows in
  (* each old row is kept at most once and in order: [src] increases over
     its entries [>= 0], which lie in [\[prefix, n)] *)
  if prefix < 0 || prefix > n || prefix + Array.length src <> Array.length rows
  then invalid_arg "Table.successor: prefix";
  let last = ref (prefix - 1) in
  for k = 0 to Array.length src - 1 do
    let s = src.(k) in
    if s >= 0 then begin
      if s <= !last || s >= n then invalid_arg "Table.successor: src";
      last := s
    end
  done;
  let base =
    match (Atomic.get t.columnar, Atomic.get t.base) with
    | Some c, _ ->
        Some
          {
            b_columnar = c;
            b_index = Option.join (Atomic.get t.index);
            prefix;
            src;
          }
    | None, Some b ->
        (* [t] was never read: skip it, composing the row maps *)
        let p = Int.min prefix b.prefix in
        let composed =
          Array.init
            (Array.length rows - p)
            (fun k ->
              let i = p + k in
              let r = if i < prefix then i else src.(i - prefix) in
              if r < b.prefix then r else b.src.(r - b.prefix))
        in
        Some { b with prefix = p; src = composed }
    | None, None -> None
  in
  {
    (of_array t.schema rows) with
    base = Atomic.make base;
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
      let base = Atomic.get t.base in
      let b =
        match base with
        | Some { b_columnar; prefix; src; _ } ->
            Batch.derive b_columnar ~prefix ~src t.rows
        | None -> Batch.of_rows t.schema t.rows
      in
      Atomic.set t.columnar (Some b);
      (* without a base index, the index has nothing to derive from *)
      (match base with
      | Some { b_index = None; _ } -> Atomic.set t.base None
      | _ -> ());
      b

let of_batch (b : Batch.t) : t = of_array (Batch.schema b) (Batch.to_rows b)

(* The index over [b], [e] (this value's period columns) derived from a
   base index: the inverse of the row map renames the base's kept rows,
   and the rows it marks fresh are merged in. *)
let derive_index (bi : Tkr_idx.Interval.t) ~prefix ~(src : int array) b e =
  let m = Tkr_idx.Interval.size bi in
  let fresh = Batch.fresh_rows ~prefix src in
  (* an INSERT keeps every base row in place: no renaming *)
  if prefix = m then Tkr_idx.Interval.derive bi ~fresh b e
  else begin
    let inv = Array.make m (-1) in
    for r = 0 to prefix - 1 do
      inv.(r) <- r
    done;
    for k = 0 to Array.length src - 1 do
      let s = src.(k) in
      if s >= 0 then inv.(s) <- prefix + k
    done;
    Tkr_idx.Interval.derive bi ~inv ~fresh b e
  end

(* the index reads the trailing two columns of the columnar image; it
   exists only when both are null-free int columns *)
let index (t : t) : Tkr_idx.Interval.t option =
  match Atomic.get t.index with
  | Some idx -> idx
  | None ->
      let base = Atomic.get t.base in
      let cols = (columnar t).Batch.cols in
      let k = Array.length cols in
      let idx =
        if k < 2 then None
        else
          match (cols.(k - 2), cols.(k - 1)) with
          | { data = Ints b; nulls = None }, { data = Ints e; nulls = None } ->
              Some
                (match base with
                | Some { b_index = Some bi; prefix; src; _ } ->
                    derive_index bi ~prefix ~src b e
                | _ -> Tkr_idx.Interval.build b e)
          | _ -> None
      in
      Atomic.set t.index (Some idx);
      Atomic.set t.base None;
      Tkr_idx.Stats.record_build ~rebuild:t.indexed_before;
      idx

(* ---- statistics ---- *)

let stats_slot (t : t) : stats =
  match Atomic.get t.stats with
  | Some s -> s
  | None ->
      let s =
        {
          columns = Array.init (Schema.arity t.schema) (fun _ -> Atomic.make None);
          mean_period = Atomic.make None;
        }
      in
      Atomic.set t.stats (Some s);
      s

let has_stats (t : t) = Option.is_some (Atomic.get t.stats)

(* one pass over the column's non-NULL values, sorted *)
let describe (c : Batch.col) (n : int) : column_stats =
  let vals = ref [] and nulls = ref 0 in
  for i = n - 1 downto 0 do
    if Batch.is_null_at c i then incr nulls else vals := Batch.value c i :: !vals
  done;
  let a = Array.of_list !vals in
  Array.sort Value.compare a;
  let k = Array.length a in
  let distinct = ref (min k 1) in
  for i = 1 to k - 1 do
    if Value.compare a.(i - 1) a.(i) <> 0 then incr distinct
  done;
  {
    count = n;
    distinct = !distinct;
    nulls = !nulls;
    min = (if k = 0 then None else Some a.(0));
    max = (if k = 0 then None else Some a.(k - 1));
  }

let column_stats (t : t) (i : int) : column_stats =
  let slot = (stats_slot t).columns.(i) in
  match Atomic.get slot with
  | Some c -> c
  | None ->
      let b = columnar t in
      let c = describe b.Batch.cols.(i) b.Batch.nrows in
      Atomic.set slot (Some c);
      c

(* like the index, the mean period length reads the trailing two columns
   and exists only when both are null-free int columns *)
let mean_period (t : t) : float option =
  let slot = (stats_slot t).mean_period in
  match Atomic.get slot with
  | Some m -> m
  | None ->
      let cols = (columnar t).Batch.cols in
      let k = Array.length cols in
      let m =
        if k < 2 then None
        else
          match (cols.(k - 2), cols.(k - 1)) with
          | { data = Ints b; nulls = None }, { data = Ints e; nulls = None }
            when Array.length b > 0 ->
              let sum = ref 0 in
              Array.iteri (fun i bi -> sum := !sum + (e.(i) - bi)) b;
              Some (float_of_int !sum /. float_of_int (Array.length b))
          | _ -> None
      in
      Atomic.set slot (Some m);
      m

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

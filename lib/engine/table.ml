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

(* A successor's rows as runs over its base's: run [r] covers rows
   [\[starts.(r), starts.(r + 1))] (the last run ends at [rows]), which
   copy the base rows from [from.(r)] on, one for one, or are fresh where
   [from.(r) < 0].  The base rows a successor keeps keep their order, so
   the kept runs' [from] ascend.  A write adds a few runs, however many
   rows it leaves in place. *)
type rowmap = { starts : int array; from : int array; rows : int }

let run_end (m : rowmap) r =
  if r + 1 < Array.length m.starts then m.starts.(r + 1) else m.rows

(* the rows of a value over its own images *)
let identity n =
  if n = 0 then { starts = [||]; from = [||]; rows = 0 }
  else { starts = [| 0 |]; from = [| 0 |]; rows = n }

(* [m] followed by a write that keeps the rows below [prefix] in place
   and makes row [prefix + k] a copy of row [src.(k)] ([-1]: fresh), as
   {!successor} takes it: O(runs + |src|), rows in place never visited *)
let compose (m : rowmap) ~prefix ~(src : int array) : rowmap =
  let ns = Array.length src in
  Tkr_idx.Scratch.scoped @@ fun get ->
  let cap = Array.length m.starts + ns + 1 in
  let st = get cap and fr = get cap in
  let r = ref 0 in
  (* row [i] copies base row [f]: a new run unless it continues the last *)
  let push i f =
    let p = !r - 1 in
    if
      p < 0
      || (if fr.(p) < 0 then f >= 0 else f <> fr.(p) + (i - st.(p)))
    then begin
      st.(!r) <- i;
      fr.(!r) <- f;
      incr r
    end
  in
  let q = ref 0 in
  while !q < Array.length m.starts && m.starts.(!q) < prefix do
    push m.starts.(!q) m.from.(!q);
    incr q
  done;
  (* the run that holds row [s] of [m]: [s] ascends over kept rows *)
  let q = ref (Int.max 0 (!q - 1)) in
  for k = 0 to ns - 1 do
    let s = src.(k) in
    if s < 0 then push (prefix + k) (-1)
    else begin
      while run_end m !q <= s do
        incr q
      done;
      let f = m.from.(!q) in
      push (prefix + k) (if f < 0 then -1 else f + (s - m.starts.(!q)))
    end
  done;
  { starts = Array.sub st 0 !r; from = Array.sub fr 0 !r; rows = prefix + ns }

(* The map as {!Batch.derive} and {!Tkr_idx.Interval.derive} read it:
   the identity prefix, and the base row of each row after it *)
let to_src (m : rowmap) : int * int array =
  let prefix =
    if Array.length m.starts > 0 && m.from.(0) = 0 then run_end m 0 else 0
  in
  let src = Array.make (m.rows - prefix) 0 in
  for r = 0 to Array.length m.starts - 1 do
    let f = m.from.(r) and s0 = m.starts.(r) in
    for i = Int.max prefix s0 to run_end m r - 1 do
      src.(i - prefix) <- (if f < 0 then -1 else f + (i - s0))
    done
  done;
  (prefix, src)

(* The built images of an earlier table value, from which a successor
   derives its own ({!successor}) or reads through ({!probe}). *)
type base = {
  b_columnar : Batch.t;
  b_index : Tkr_idx.Interval.t option;  (* [None]: not built, or none *)
  map : rowmap;  (* the successor's rows over the base's *)
  delta_rows : int;  (* fresh rows plus base rows the successor dropped *)
}

let base_of (c : Batch.t) b_index (map : rowmap) : base =
  let fresh = ref 0 in
  for r = 0 to Array.length map.starts - 1 do
    if map.from.(r) < 0 then fresh := !fresh + (run_end map r - map.starts.(r))
  done;
  let kept = map.rows - !fresh in
  { b_columnar = c; b_index; map; delta_rows = !fresh + c.Batch.nrows - kept }

(* A successor's delta may reach [1 / fold_divisor] of its base's rows
   before an index read folds it into full images ({!probe}).  A read
   through the delta scans the fresh rows and gathers its candidates
   from the base image; a fold derives the whole columnar image and
   index.  Read latency over the writes benchmark's sequence, and after
   single-row INSERTs into a 20k-row table, was flat from 1/8 to 1/128
   on a 2-vCPU VM (EXPERIMENTS.md, "The fold bound"); 1/16 sits in that
   range. *)
let fold_divisor = 16

(* whether index reads may go through [b]'s delta instead of folding *)
let readable (b : base) = b.delta_rows * fold_divisor <= b.b_columnar.Batch.nrows

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
         from, and what index probes read through while the delta is
         small ({!probe}); emptied once the index is filled (or the
         columnar image, when the base has no index), so no value keeps
         an earlier value's images longer than it needs them *)
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
  let own c idx = base_of c idx (compose (identity n) ~prefix ~src) in
  (* [t] was never read, or read only through its delta: skip it,
     composing the row maps over its base *)
  let composed (b : base) =
    base_of b.b_columnar b.b_index (compose b.map ~prefix ~src)
  in
  (* A read of an older catalog value may fill [t]'s images, and drop
     its base, while this runs.  Each slot is read once; every value a
     slot ever holds is a correct image of [t], and a dropped base never
     comes back, so any mix of the three reads gives a correct base, at
     worst one that reuses less.  The base is read before the images: a
     fill between the reads then leaves the base or the images to reuse,
     never neither. *)
  let b = Atomic.get t.base in
  let idx = Atomic.get t.index in
  let base =
    match (Atomic.get t.columnar, idx, b) with
    | Some c, Some idx, _ -> Some (own c idx)
    | c, None, Some ({ b_index = Some _; _ } as b) -> (
        (* an index-bearing base outlives [t]'s own columnar image while
           the composed delta is small enough to read through; past
           that, a scanned [t] starts a new base, so scans alone do not
           pin an old base and derive from it ever longer deltas *)
        let s = composed b in
        match c with
        | Some c when not (readable s) -> Some (own c None)
        | _ -> Some s)
    | Some c, _, _ -> Some (own c None)
    | None, _, Some b -> Some (composed b)
    | None, _, None -> None
  in
  {
    (of_array t.schema rows) with
    base = Atomic.make base;
    indexed_before = t.indexed_before || Option.is_some idx;
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
        | Some { b_columnar; map; _ } ->
            let prefix, src = to_src map in
            Batch.derive b_columnar ~prefix ~src (Array.get t.rows)
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
                | Some { b_index = Some bi; map; _ } ->
                    let prefix, src = to_src map in
                    derive_index bi ~prefix ~src b e
                | _ -> Tkr_idx.Interval.build b e)
          | _ -> None
      in
      Atomic.set t.index (Some idx);
      Atomic.set t.base None;
      Tkr_idx.Stats.record_build ~rebuild:t.indexed_before;
      idx

(* ---- index probes ---- *)

type probe = { view : Batch.t; candidates : int; delta : int option }

(* [probe] over [t]'s delta, or [None] when a fresh row's period is not
   two ints (then [t] has no index).  The base probe's rows are renamed
   run by run through the row map, which keeps them ascending and drops
   the rows [t] no longer has; the fresh rows the bounds admit are
   merged in; and only the candidates are gathered, from the base image
   and the fresh tuples, by {!Batch.derive} over a candidate-sized row
   map, only the [need]ed columns.  O(candidates + runs + fresh rows);
   the base probe and the candidates are collected in scratch buffers, so
   only the gathered columns are allocated per read. *)
let probe_delta ?need (t : t) (b : base) (bi : Tkr_idx.Interval.t) ~b_hi
    ~e_lo : probe option =
  let bc, nb = Tkr_idx.Interval.probe_scratch bi ~b_hi ~e_lo in
  let map = b.map in
  (* at most the base's candidates and the fresh rows, which the delta
     counts *)
  let size = Int.min (nb + b.delta_rows) (Array.length t.rows) in
  let arity = Schema.arity t.schema in
  Tkr_idx.Scratch.scoped @@ fun get ->
  (* candidate [c] is row [cand.(c)], base row [csrc.(c)] or fresh *)
  let cand = get size and csrc = get size in
  let k = ref 0 and j = ref 0 and scanned = ref 0 and typed = ref true in
  for r = 0 to Array.length map.starts - 1 do
    let lo = map.starts.(r) and hi = run_end map r and f = map.from.(r) in
    if f >= 0 then begin
      (* the base probe's rows in [f, f + hi - lo), renamed *)
      while !j < nb && bc.(!j) < f do
        incr j
      done;
      let last = f + (hi - lo) in
      while !j < nb && bc.(!j) < last do
        cand.(!k) <- lo + (bc.(!j) - f);
        csrc.(!k) <- bc.(!j);
        incr k;
        incr j
      done
    end
    else
      for i = lo to hi - 1 do
        incr scanned;
        let row = t.rows.(i) in
        match (Tuple.get row (arity - 2), Tuple.get row (arity - 1)) with
        | Value.Int rb, Value.Int re ->
            if Tkr_idx.Interval.admits ~b_hi ~e_lo rb re then begin
              cand.(!k) <- i;
              csrc.(!k) <- -1;
              incr k
            end
        | _ -> typed := false
      done
  done;
  Tkr_idx.Scratch.release bc;
  if not !typed then None
  else
    Some
      {
        view =
          Batch.derive ?need ~len:!k b.b_columnar ~prefix:0 ~src:csrc
            (fun c -> t.rows.(cand.(c)));
        candidates = !k;
        delta = Some !scanned;
      }

let probe ?need (t : t) ~b_hi ~e_lo : probe option =
  let materialized () =
    match index t with
    | None -> None
    | Some idx ->
        let cand = Tkr_idx.Interval.probe idx ~b_hi ~e_lo in
        Some
          {
            view = Batch.with_sel (columnar t) cand;
            candidates = Array.length cand;
            delta = None;
          }
  in
  match (Atomic.get t.index, Atomic.get t.base) with
  | None, Some ({ b_index = Some bi; _ } as b) when readable b -> (
      match probe_delta ?need t b bi ~b_hi ~e_lo with
      | Some _ as p -> p
      | None -> materialized ())
  | _ -> materialized ()

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

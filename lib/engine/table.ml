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

(* A segment: rows that never change, as boxed rows and as a columnar
   image, and the interval index made from them on first use.  A
   segment is made from one of the two forms (INSERT, DML and CSV make
   rows; an executed query makes a batch) and makes the other on first
   use, so every slot but [index] starts with at least one of [rows]
   and [columnar] filled.  Catalog values share segments; a value hides
   the rows it deleted with a bitmap of its own. *)
type seg = {
  nrows : int;
  rows : Tuple.t array option Atomic.t;
  columnar : Batch.t option Atomic.t;
  index : Tkr_idx.Interval.t option option Atomic.t;
}

let seg rows =
  {
    nrows = Array.length rows;
    rows = Atomic.make (Some rows);
    columnar = Atomic.make None;
    index = Atomic.make None;
  }

(* [b] has no selection *)
let seg_of_batch (b : Batch.t) =
  {
    nrows = b.nrows;
    rows = Atomic.make None;
    columnar = Atomic.make (Some b);
    index = Atomic.make None;
  }

(* [slot]'s value, made by [f] on first use.  Slots only ever fill: of
   racing first uses, every one returns the value the first to publish
   stored. *)
let fill slot f =
  match Atomic.get slot with
  | Some v -> v
  | None ->
      let v = f () in
      if Atomic.compare_and_set slot None (Some v) then v
      else Option.get (Atomic.get slot)

(* a segment without rows has its image *)
let seg_rows (s : seg) =
  fill s.rows (fun () -> Batch.to_rows (Option.get (Atomic.get s.columnar)))

let seg_columnar schema (s : seg) =
  fill s.columnar (fun () -> Batch.of_rows schema (seg_rows s))

(* the trailing two columns of an image, when both are null-free int
   columns: the period an index reads *)
let period_cols (b : Batch.t) =
  let k = Array.length b.cols in
  if k < 2 then None
  else
    match (b.cols.(k - 2), b.cols.(k - 1)) with
    | { data = Ints b; nulls = None }, { data = Ints e; nulls = None } -> Some (b, e)
    | _ -> None

let seg_index ~rebuild schema (s : seg) =
  fill s.index (fun () ->
      let idx =
        Option.map
          (fun (b, e) -> Tkr_idx.Interval.build b e)
          (period_cols (seg_columnar schema s))
      in
      Tkr_idx.Stats.record_build ~rebuild;
      idx)

(* Deletion bitmaps: bit [i] set when row [i] of the segment is
   deleted; the empty bitmap deletes nothing. *)
let no_deletions = Bytes.empty

let is_dead (d : Bytes.t) i =
  Bytes.length d > 0 && Char.code (Bytes.get d (i lsr 3)) land (1 lsl (i land 7)) <> 0

let kill (d : Bytes.t) i =
  let c = Char.code (Bytes.get d (i lsr 3)) in
  Bytes.set d (i lsr 3) (Char.chr (c lor (1 lsl (i land 7))))

(* Trailing segments merge on each append while the one before the last
   is below [tail_rows] rows or at most [merge_ratio] times the last,
   except that a first segment below [tail_rows] rows keeps a last one
   of at most [1 / tail_divisor] its size.  So every segment but the
   last holds at least [tail_rows] rows and more than [merge_ratio]
   times the next, or the value is a small first segment and a tail of
   at most three rows: a value of [n] rows has at most
   [max 2 (log_merge_ratio (n / tail_rows) + 2)] segments, and a row is
   copied O(log n) times, amortized.  Index reads scan a last segment
   below [tail_rows] rows and probe the others' indexes, so a table of
   16 to 63 rows reads its first few one-row INSERTs through the index
   it has, as a larger one does, while a smaller table, whose index
   costs next to nothing to build, stays one segment.  Measured on the
   writes benchmark and on one-row INSERTs at 10k and 100k rows
   (EXPERIMENTS.md, "Segment sizes"). *)
let merge_ratio = 2
let tail_rows = 64
let tail_divisor = 16

(* a segment as one value holds it *)
type part = {
  seg : seg;
  dead : Bytes.t;  (* the deletion bitmap *)
  live : int;  (* rows not deleted *)
}

type t = {
  schema : Schema.t;
  parts : part array;
  cardinality : int;
  whole : seg option Atomic.t;
      (* every live row in row order as one segment, made on first use
         (a value of one segment without deletions starts with it): the
         rows, columnar image and index of the whole value, which its
         successors do not share *)
  stats : stats option Atomic.t;
  indexed_before : bool;
      (* this value, through {!write}, succeeds one that had an index:
         building an index for it is a rebuild *)
}

let of_parts schema ~indexed_before parts =
  let whole =
    match parts with
    | [| { seg; dead; _ } |] when Bytes.length dead = 0 -> Some seg
    | _ -> None
  in
  {
    schema;
    parts;
    cardinality = Array.fold_left (fun n p -> n + p.live) 0 parts;
    whole = Atomic.make whole;
    stats = Atomic.make None;
    indexed_before;
  }

let of_array schema rows : t =
  of_parts schema ~indexed_before:false
    [| { seg = seg rows; dead = no_deletions; live = Array.length rows } |]

let make schema rows = of_array schema (Array.of_list rows)
let empty schema = of_array schema [||]
let schema t = t.schema
let cardinality t = t.cardinality

(* [f i row] for each live row, [i] its position in row order *)
let iteri f (t : t) =
  let i = ref 0 in
  Array.iter
    (fun p ->
      Array.iteri
        (fun j row ->
          if not (is_dead p.dead j) then begin
            f !i row;
            incr i
          end)
        (seg_rows p.seg))
    t.parts

let layout (t : t) = Array.map (fun p -> (p.seg.nrows, p.live)) t.parts

let whole (t : t) =
  fill t.whole (fun () ->
      if t.cardinality = 0 then seg [||]
      else begin
        let out = Array.make t.cardinality (Tuple.make []) in
        iteri (fun i row -> out.(i) <- row) t;
        seg out
      end)

let rows t = seg_rows (whole t)
let to_list t = Array.to_list (rows t)
let columnar (t : t) : Batch.t = seg_columnar t.schema (whole t)
let index (t : t) = seg_index ~rebuild:t.indexed_before t.schema (whole t)

let of_batch (b : Batch.t) : t =
  let b = Batch.compact b in
  of_parts b.schema ~indexed_before:false
    [| { seg = seg_of_batch b; dead = no_deletions; live = b.nrows } |]

(* the live rows of a part *)
let live_rows p =
  let rows = seg_rows p.seg in
  if Bytes.length p.dead = 0 then rows
  else begin
    let out = Array.make p.live (Tuple.make []) and k = ref 0 in
    Array.iteri
      (fun j row ->
        if not (is_dead p.dead j) then begin
          out.(!k) <- row;
          incr k
        end)
      rows;
    out
  end

let size p = p.seg.nrows

(* parts, last first, with the last two merged by the rule above until
   it no longer applies *)
let rec settle = function
  | l :: p :: older
    when size p <= merge_ratio * size l
         || (size p < tail_rows && (older <> [] || size p < tail_divisor * size l)) ->
      let rows = Array.append (live_rows p) (live_rows l) in
      settle ({ seg = seg rows; dead = no_deletions; live = p.live + l.live } :: older)
  | stack -> stack

let write (t : t) ~(deleted : int array) ~(added : Tuple.t array) : t =
  let nd = Array.length deleted in
  Array.iteri
    (fun k i ->
      if i < 0 || i >= t.cardinality || (k > 0 && i <= deleted.(k - 1)) then
        invalid_arg "Table.write: deleted")
    deleted;
  (* the deleted rows, part by part: [first] is the position of the
     part's first live row; [j] walks its rows, [pos] is row [j]'s
     position when it is live *)
  let k = ref 0 and first = ref 0 in
  let parts =
    Array.map
      (fun p ->
        let stop = !first + p.live in
        let p =
          if !k >= nd || deleted.(!k) >= stop then p
          else begin
            let d =
              if Bytes.length p.dead = 0 then Bytes.make ((size p + 7) / 8) '\000'
              else Bytes.copy p.dead
            in
            let j = ref 0 and pos = ref !first and k0 = !k in
            while !k < nd && deleted.(!k) < stop do
              while is_dead p.dead !j || !pos < deleted.(!k) do
                if not (is_dead p.dead !j) then incr pos;
                incr j
              done;
              kill d !j;
              incr k
            done;
            { p with dead = d; live = p.live - (!k - k0) }
          end
        in
        first := stop;
        p)
      t.parts
  in
  (* parts with no live row go; the added rows come last *)
  let stack =
    Array.fold_left (fun acc p -> if p.live > 0 then p :: acc else acc) [] parts
  in
  let stack =
    if Array.length added = 0 then stack
    else settle ({ seg = seg added; dead = no_deletions; live = Array.length added } :: stack)
  in
  let indexed (sg : seg) = Option.is_some (Atomic.get sg.index) in
  of_parts t.schema
    ~indexed_before:
      (t.indexed_before
      || Array.exists (fun p -> indexed p.seg) t.parts
      || match Atomic.get t.whole with Some w -> indexed w | None -> false)
    (Array.of_list (List.rev stack))

(* ---- index probes ---- *)

type probe = { view : Batch.t; candidates : int; segments : int; scanned : int }

(* Each segment in turn: an index probe, or a scan of the unindexed
   tail through {!Tkr_idx.Interval.admits}, each into a scratch buffer
   from which the deleted rows are then dropped.  The candidates of one
   segment select its image; those of several are gathered in row
   order, only the [need]ed columns. *)
let probe_parts ?need (t : t) parts ~b_hi ~e_lo : probe option =
  let ns = Array.length parts in
  let images = Array.map (fun p -> seg_columnar t.schema p.seg) parts in
  let found = Array.make ns ([||], 0) in
  let typed = ref true and scanned = ref 0 in
  Array.iteri
    (fun s p ->
      let buf, m =
        if not !typed then ([||], 0)
        else if s > 0 && s = ns - 1 && size p < tail_rows then (
          match period_cols images.(s) with
          | None ->
              typed := false;
              ([||], 0)
          | Some (b, e) ->
              let buf = Tkr_idx.Scratch.get (Array.length b) and m = ref 0 in
              scanned := Array.length b;
              for i = 0 to Array.length b - 1 do
                if Tkr_idx.Interval.admits ~b_hi ~e_lo b.(i) e.(i) then begin
                  buf.(!m) <- i;
                  incr m
                end
              done;
              (buf, !m))
        else
          match seg_index ~rebuild:t.indexed_before t.schema p.seg with
          | None ->
              typed := false;
              ([||], 0)
          | Some idx -> Tkr_idx.Interval.probe_scratch idx ~b_hi ~e_lo
      in
      let k = ref 0 in
      for c = 0 to m - 1 do
        if not (is_dead p.dead buf.(c)) then begin
          buf.(!k) <- buf.(c);
          incr k
        end
      done;
      found.(s) <- (buf, !k))
    parts;
  let release () = Array.iter (fun (buf, _) -> Tkr_idx.Scratch.release buf) found in
  if not !typed then begin
    release ();
    None
  end
  else begin
    (* how many parts hold candidates, and the last that does *)
    let n = ref 0 and holding = ref 0 and last = ref 0 in
    Array.iteri
      (fun s (_, m) ->
        n := !n + m;
        if m > 0 then begin
          incr holding;
          last := s
        end)
      found;
    let view =
      if !holding <= 1 && ns > 0 then
        let buf, m = found.(!last) in
        Batch.with_sel images.(!last) (Array.sub buf 0 m)
      else
        Batch.gather_parts ?need t.schema
          (Array.mapi (fun s (buf, m) -> (images.(s), buf, m)) found)
    in
    release ();
    Some { view; candidates = !n; segments = ns; scanned = !scanned }
  end

(* a value whose whole index is built, or that is one segment without
   deletions, probes the whole value as one part *)
let probe ?need (t : t) ~b_hi ~e_lo : probe option =
  let parts =
    match Atomic.get t.whole with
    | Some w
      when Option.is_some (Atomic.get w.index)
           || match t.parts with [| p |] -> w == p.seg | _ -> false ->
        [| { seg = w; dead = no_deletions; live = t.cardinality } |]
    | _ -> t.parts
  in
  probe_parts ?need t parts ~b_hi ~e_lo

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
  Array.fold_left (fun acc row -> NR.add acc row 1) (NR.empty t.schema) (rows t)

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
  let r = Array.copy (rows t) in
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
  let rows = to_list t in
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

(** Physical multiset tables: the engine's stored representation of SQL
    (period) relations, as columns.  Duplicates are physical rows,
    matching the paper's implementation level where N^T-relations are
    encoded as SQL multiset relations (Section 8). *)

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
  orders : int array option Atomic.t array;
      (* per column, the key order {!where} reads an int column's
         equality through *)
}
(* per-entry slots inside the statistics slot, each filled on first use *)

(* A segment: rows that never change, as a columnar image (a batch
   without a selection), and the interval index and statistics (with
   the key orders) made from it on first use.  Rows are boxed from the
   image when asked and kept nowhere.  Catalog values share segments; a
   value hides the rows it deleted with a bitmap of its own. *)
type seg = {
  image : Batch.t;
  index : Tkr_idx.Interval.t option option Atomic.t;
  stats : stats option Atomic.t;
}

let seg image = { image; index = Atomic.make None; stats = Atomic.make None }

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

(* row [j] of an image, boxed *)
let row_at (b : Batch.t) j = Tuple.of_array (Array.map (fun c -> Batch.value c j) b.cols)

(* the trailing two columns of an image, when both are null-free int
   columns: the period an index reads *)
let period_cols (b : Batch.t) =
  let k = Array.length b.cols in
  if k < 2 then None
  else
    match (b.cols.(k - 2), b.cols.(k - 1)) with
    | { data = Ints b; nulls = None }, { data = Ints e; nulls = None } -> Some (b, e)
    | _ -> None

let seg_index ~rebuild (s : seg) =
  fill s.index (fun () ->
      let idx = Option.map (fun (b, e) -> Tkr_idx.Interval.build b e) (period_cols s.image) in
      Tkr_idx.Stats.record_build ~rebuild;
      idx)

(* Deletion bitmaps, in chunks of [chunk_rows] rows: bit
   [i mod chunk_rows] of chunk [i / chunk_rows] is set when row [i] of
   the segment is deleted, and [counts.(k)] is how many bits chunk [k]
   sets.  A chunk that sets none may be empty, and the empty bitmap
   deletes nothing.  A write copies the two arrays and the chunks it
   sets bits in, so a DML that deletes a few rows of a large segment
   copies O(rows / chunk_rows + chunk_rows / 8) bytes, not the
   segment's bitmap, and a position converts to a row and back by
   walking the counts and one chunk's bytes ({!rank}, {!unrank}). *)
type dead = { chunks : Bytes.t array; counts : int array }

let chunk_log = 12
let chunk_rows = 1 lsl chunk_log
let no_deletions = { chunks = [||]; counts = [||] }
let clean_bitmap d = Array.length d.counts = 0

(* bits set in each byte value *)
let pop8 =
  String.init 256 (fun b ->
      let rec bits x = if x = 0 then 0 else (x land 1) + bits (x lsr 1) in
      Char.chr (bits b))

let pop x = Char.code (String.unsafe_get pop8 x)
let byte (c : Bytes.t) b = if Bytes.length c = 0 then 0 else Char.code (Bytes.get c b)

let is_dead d i =
  (not (clean_bitmap d))
  && byte d.chunks.(i lsr chunk_log) ((i land (chunk_rows - 1)) lsr 3)
     land (1 lsl (i land 7))
     <> 0

(* [d], a bitmap of a segment of [rows] rows, with the rows [js]
   (ascending, live in [d]) deleted as well *)
let kill_rows d ~rows (js : int list) =
  let n = (rows + chunk_rows - 1) / chunk_rows in
  let fresh () = (Array.make n Bytes.empty, Array.make n 0) in
  let chunks, counts =
    if clean_bitmap d then fresh () else (Array.copy d.chunks, Array.copy d.counts)
  in
  let copied = ref (-1) in
  List.iter
    (fun j ->
      let k = j lsr chunk_log and i = j land (chunk_rows - 1) in
      if k <> !copied then begin
        let c = chunks.(k) in
        chunks.(k) <-
          (if Bytes.length c > 0 then Bytes.copy c
           else Bytes.make ((min chunk_rows (rows - (k lsl chunk_log)) + 7) / 8) '\000');
        copied := k
      end;
      let c = chunks.(k) in
      Bytes.set c (i lsr 3) (Char.chr (Char.code (Bytes.get c (i lsr 3)) lor (1 lsl (i land 7))));
      counts.(k) <- counts.(k) + 1)
    js;
  { chunks; counts }

(* A walk forward over one segment's bitmap: it stands at byte [b] of
   chunk [k], with [kdead] deleted rows in the chunks before [k] and
   [bdead] in the bytes of [k] before [b].  Each step passes a chunk by
   its count or a byte by its bits, so a walk over ascending rows costs
   the chunks and the bytes of the chunks it stops in. *)
type walk = {
  d : dead;
  mutable k : int;
  mutable kdead : int;
  mutable b : int;
  mutable bdead : int;
}

let walk d = { d; k = 0; kdead = 0; b = 0; bdead = 0 }

let next_chunk w =
  w.kdead <- w.kdead + w.d.counts.(w.k);
  w.k <- w.k + 1;
  w.b <- 0;
  w.bdead <- 0

let next_byte w =
  w.bdead <- w.bdead + pop (byte w.d.chunks.(w.k) w.b);
  w.b <- w.b + 1

(* the deleted rows before row [j]; [j] at or after the rows asked of
   [w] before *)
let rank w j =
  if clean_bitmap w.d then 0
  else begin
    while w.k < j lsr chunk_log do
      next_chunk w
    done;
    if w.d.counts.(w.k) = 0 then w.kdead
    else begin
      let b = (j land (chunk_rows - 1)) lsr 3 in
      while w.b < b do
        next_byte w
      done;
      w.kdead + w.bdead + pop (byte w.d.chunks.(w.k) b land ((1 lsl (j land 7)) - 1))
    end
  end

(* the row of a segment of [rows] rows that is its [l]th live one; [l]
   above the ones asked of [w] before *)
let unrank w ~rows l =
  if clean_bitmap w.d then l
  else begin
    (* pass the chunks, then the bytes, whose live rows end at or
       before the [l]th *)
    while l >= min rows ((w.k + 1) lsl chunk_log) - w.kdead - w.d.counts.(w.k) do
      next_chunk w
    done;
    if w.d.counts.(w.k) = 0 then l + w.kdead
    else begin
      let c = w.d.chunks.(w.k) in
      let start () = (w.k lsl chunk_log) + (w.b lsl 3) in
      while l >= start () + 8 - w.kdead - w.bdead - pop (byte c w.b) do
        next_byte w
      done;
      let v = byte c w.b and r = start () in
      let rec bit i dead =
        if v land (1 lsl i) <> 0 then bit (i + 1) (dead + 1)
        else if r + i - dead = l then r + i
        else bit (i + 1) dead
      in
      bit 0 (w.kdead + w.bdead)
    end
  end

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
  dead : dead;  (* the deletion bitmap *)
  live : int;  (* rows not deleted *)
}

type t = {
  schema : Schema.t;
  cardinality : int;
  indexed_before : bool;
      (* this value, through {!write}, succeeds one that had an index:
         building an index for it is a rebuild *)
  parts : part array Atomic.t;
      (* replaced at most once, by {!whole}: parts that are several
         segments, or one with deletions, by one segment of the same
         live rows in the same order *)
}

let of_parts schema ~indexed_before parts =
  {
    schema;
    cardinality = Array.fold_left (fun n p -> n + p.live) 0 parts;
    indexed_before;
    parts = Atomic.make parts;
  }

(* a value of one segment, [image] *)
let of_image schema (image : Batch.t) =
  of_parts schema ~indexed_before:false
    [| { seg = seg image; dead = no_deletions; live = image.nrows } |]

let of_array schema rows : t = of_image schema (Batch.of_rows schema rows)
let make schema rows = of_array schema (Array.of_list rows)
let empty schema = of_array schema [||]
let schema t = t.schema
let cardinality t = t.cardinality
let size p = p.seg.image.nrows

(* [f i row] for each live row, [i] its position in row order *)
let iteri f (t : t) =
  let i = ref 0 in
  Array.iter
    (fun p ->
      for j = 0 to size p - 1 do
        if not (is_dead p.dead j) then begin
          f !i (row_at p.seg.image j);
          incr i
        end
      done)
    (Atomic.get t.parts)

let layout (t : t) = Array.map (fun p -> (size p, p.live)) (Atomic.get t.parts)

(* A part's live rows as a batch without a selection: the image of a
   part without deletions, or else its live rows, each column stored
   as {!Batch.of_rows} stores them. *)
let live_rows p =
  if clean_bitmap p.dead then p.seg.image
  else begin
    let live = Array.make p.live 0 and k = ref 0 in
    for j = 0 to size p - 1 do
      if not (is_dead p.dead j) then begin
        live.(!k) <- j;
        incr k
      end
    done;
    Batch.as_of_rows (Batch.compact (Batch.with_sel p.seg.image live))
  end

(* One segment of the parts' live rows, in order, their columns
   appended (the smaller parts first): of parts stored as
   {!Batch.of_rows} stores their rows, the columns it stores of all. *)
let concat schema parts =
  let n = Array.length parts in
  let rec from i =
    if i = n - 1 then live_rows parts.(i) else Batch.append (live_rows parts.(i)) (from (i + 1))
  in
  seg (if n = 0 then Batch.of_rows schema [||] else { (from 0) with schema })

(* the segment of parts that are one segment without deletions *)
let clean = function
  | [| { seg; dead; _ } |] when clean_bitmap dead -> Some seg
  | _ -> None

(* The value as one segment without deletions.  Any other value
   compacts on first use: its live rows, concatenated, become one
   segment that replaces its parts by compare-and-set, so racing first
   uses return one segment and every successor {!write} makes after
   that shares it. *)
let rec whole (t : t) =
  let parts = Atomic.get t.parts in
  match clean parts with
  | Some s -> s
  | None ->
      let s = concat t.schema parts in
      let one = [| { seg = s; dead = no_deletions; live = t.cardinality } |] in
      if Atomic.compare_and_set t.parts parts one then s else whole t

let columnar (t : t) : Batch.t = (whole t).image
let rows t = Batch.to_rows (columnar t)
let to_list t = Array.to_list (rows t)
let index (t : t) = seg_index ~rebuild:t.indexed_before (whole t)

let of_batch (b : Batch.t) : t =
  let b = Batch.compact b in
  of_image b.schema b

(* parts, last first, with the last two merged by the rule above until
   it no longer applies *)
let rec settle schema = function
  | l :: p :: older
    when size p <= merge_ratio * size l
         || (size p < tail_rows && (older <> [] || size p < tail_divisor * size l)) ->
      settle schema
        ({ seg = concat schema [| p; l |]; dead = no_deletions; live = p.live + l.live } :: older)
  | stack -> stack

let write (t : t) ~(deleted : int array) ~(added : Tuple.t array) : t =
  let nd = Array.length deleted in
  Array.iteri
    (fun k i ->
      if i < 0 || i >= t.cardinality || (k > 0 && i <= deleted.(k - 1)) then
        invalid_arg "Table.write: deleted")
    deleted;
  (* the deleted rows, part by part: [first] is the position of the
     part's first live row *)
  let k = ref 0 and first = ref 0 in
  let old = Atomic.get t.parts in
  let parts =
    Array.map
      (fun p ->
        let stop = !first + p.live in
        let p =
          if !k >= nd || deleted.(!k) >= stop then p
          else begin
            let w = walk p.dead and js = ref [] and k0 = !k in
            while !k < nd && deleted.(!k) < stop do
              js := unrank w ~rows:(size p) (deleted.(!k) - !first) :: !js;
              incr k
            done;
            {
              p with
              dead = kill_rows p.dead ~rows:(size p) (List.rev !js);
              live = p.live - (!k - k0);
            }
          end
        in
        first := stop;
        p)
      old
  in
  (* parts with no live row go; the added rows come last *)
  let stack =
    Array.fold_left (fun acc p -> if p.live > 0 then p :: acc else acc) [] parts
  in
  let stack =
    if Array.length added = 0 then stack
    else
      let image = Batch.of_rows t.schema added in
      settle t.schema ({ seg = seg image; dead = no_deletions; live = image.nrows } :: stack)
  in
  let indexed p = Option.is_some (Atomic.get p.seg.index) in
  of_parts t.schema
    ~indexed_before:(t.indexed_before || Array.exists indexed old)
    (Array.of_list (List.rev stack))

(* ---- index probes ---- *)

type probe = { view : Batch.t; candidates : int; segments : int; scanned : int }

(* Each segment in turn: an index probe, or a scan of the unindexed
   tail through {!Tkr_idx.Interval.admits}, each into a scratch buffer
   from which the deleted rows are then dropped.  The candidates of one
   segment select its image; those of several are gathered in row
   order, only the [need]ed columns. *)
let probe ?need (t : t) ~b_hi ~e_lo : probe option =
  let parts = Atomic.get t.parts in
  let ns = Array.length parts in
  let found = Array.make ns ([||], 0) in
  let typed = ref true and scanned = ref 0 in
  Array.iteri
    (fun s p ->
      let buf, m =
        if not !typed then ([||], 0)
        else if s > 0 && s = ns - 1 && size p < tail_rows then (
          match period_cols p.seg.image with
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
          match seg_index ~rebuild:t.indexed_before p.seg with
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
        Batch.with_sel parts.(!last).seg.image (Array.sub buf 0 m)
      else
        Batch.gather_parts ?need t.schema
          (Array.mapi (fun s (buf, m) -> (parts.(s).seg.image, buf, m)) found)
    in
    release ();
    Some { view; candidates = !n; segments = ns; scanned = !scanned }
  end

(* the segment's statistics slot, made on first use *)
let seg_stats (s : seg) =
  let slots () = Array.init (Array.length s.image.cols) (fun _ -> Atomic.make None) in
  fill s.stats (fun () ->
      { columns = slots (); mean_period = Atomic.make None; orders = slots () })

(* ---- the rows a WHERE clause selects ---- *)

(* What an expression's non-NULL values are over the columns of an
   image: always NULL, of one type, or unknown (a boxed column, a CASE
   of mixed types).  [Partial]: some row could make it raise, as
   {!Expr.eval} does on a comparison of unlike types, on arithmetic or
   negation of a non-number and on LIKE of a non-string. *)
type kind = Nulls | Ty of Value.ty | Unknown

exception Partial

let rec kind (b : Batch.t) (e : Expr.t) : kind =
  let numeric k = match k with Nulls | Ty (TInt | TFloat) -> k | _ -> raise Partial in
  let comparable x y =
    match (x, y) with
    | Nulls, _ | _, Nulls | Ty (TInt | TFloat), Ty (TInt | TFloat) -> ()
    | Ty a, Ty b when a = b -> ()
    | _ -> raise Partial
  in
  let join x y =
    match (x, y) with
    | Nulls, k | k, Nulls -> k
    | Ty a, Ty b when a = b -> x
    | _ -> Unknown
  in
  match e with
  | Expr.Col i -> (
      match b.cols.(i).data with
      | Ints _ -> Ty TInt
      | Floats _ -> Ty TFloat
      | Bools _ -> Ty TBool
      | Strs _ -> Ty TStr
      | Boxed _ -> Unknown)
  | Const v -> Option.fold ~none:Nulls ~some:(fun ty -> Ty ty) (Value.type_of v)
  | Binop (_, x, y) -> (
      match (numeric (kind b x), numeric (kind b y)) with
      | Nulls, _ | _, Nulls -> Nulls
      | Ty TInt, Ty TInt -> Ty TInt
      | _ -> Ty TFloat)
  | Neg x -> numeric (kind b x)
  | Cmp (_, x, y) ->
      comparable (kind b x) (kind b y);
      Ty TBool
  | And (x, y) | Or (x, y) ->
      ignore (kind b x);
      ignore (kind b y);
      Ty TBool
  | Not x | Is_null x ->
      ignore (kind b x);
      Ty TBool
  | Like (x, _) -> (
      match kind b x with Nulls | Ty TStr -> Ty TBool | _ -> raise Partial)
  | In_list (x, vs) ->
      let k = kind b x in
      List.iter (fun v -> comparable k (kind b (Const v))) vs;
      Ty TBool
  | Case (branches, default) ->
      List.fold_left
        (fun acc (c, r) ->
          ignore (kind b c);
          join acc (kind b r))
        (Option.fold ~none:Nulls ~some:(kind b) default)
        branches
  | Greatest (x, y) | Least (x, y) ->
      let kx = kind b x and ky = kind b y in
      comparable kx ky;
      join kx ky

let total b e = match kind b e with _ -> true | exception Partial -> false

(* [Col c = Const (Int k)], either way round, over an int column: its
   column and key *)
let int_key (b : Batch.t) (conj : Expr.t) =
  match conj with
  | Expr.Cmp (Eq, Col c, Const (Int k)) | Cmp (Eq, Const (Int k), Col c) -> (
      match b.cols.(c).data with Ints a -> Some (c, a, k) | _ -> None)
  | _ -> None

(* the segment's non-NULL rows of int column [c] (values [a]) by value,
   rows of one value ascending; made on first use *)
let key_order (s : seg) c (a : int array) =
  let b = s.image in
  fill (seg_stats s).orders.(c) (fun () ->
      let nulls = b.cols.(c).nulls in
      let rows = ref [] in
      for i = b.nrows - 1 downto 0 do
        if not (Batch.null_in nulls i) then rows := i :: !rows
      done;
      let o = Array.of_list !rows in
      Array.stable_sort (fun x y -> Int.compare a.(x) a.(y)) o;
      o)

(* the rows of [o] whose value in [a] is [k], ascending *)
let key_rows (o : int array) (a : int array) k =
  (* the first index of [o] whose value is at least [k] (or above [k]) *)
  let bound above =
    let lo = ref 0 and hi = ref (Array.length o) in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      let v = a.(o.(mid)) in
      if v < k || (above && v = k) then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  let lo = bound false in
  Array.sub o lo (bound true - lo)

(* Each part in turn.  A predicate that cannot raise over the part's
   image ({!kind}) selects its rows from the image: through the key
   order when a conjunct is an int column's equality, the other
   conjuncts then filtering those rows, or else by [filter] over the
   whole image; the deleted rows are dropped.  One that may raise is
   evaluated row by row, so the first row that raises raises what
   {!Expr.holds} raises there, after [f] has seen the matches before
   it. *)
let where ~(filter : Batch.t -> Expr.t -> int array) f (t : t) (pred : Expr.t) =
  let first = ref 0 in
  Array.iter
    (fun p ->
      let b = p.seg.image in
      if not (total b pred) then begin
        let pos = ref !first in
        for j = 0 to b.nrows - 1 do
          if not (is_dead p.dead j) then begin
            let row = row_at b j in
            if Expr.holds row pred then f !pos row;
            incr pos
          end
        done
      end
      else begin
        (* the first int equality, and the other conjuncts *)
        let rec split before = function
          | [] -> None
          | e :: rest -> (
              match int_key b e with
              | Some key -> Some (key, List.rev_append before rest)
              | None -> split (e :: before) rest)
        in
        let rows =
          match split [] (Expr.conjuncts pred) with
          | Some ((c, a, k), rest) -> (
              let cands = key_rows (key_order p.seg c a) a k in
              match rest with
              | [] -> cands
              | e :: es ->
                  if Array.length cands = 0 then cands
                  else
                    filter (Batch.with_sel b cands)
                      (List.fold_left (fun acc e -> Expr.And (acc, e)) e es))
          | None -> filter b pred
        in
        let w = walk p.dead in
        Array.iter
          (fun j -> if not (is_dead p.dead j) then f (!first + j - rank w j) (row_at b j))
          rows
      end;
      first := !first + p.live)
    (Atomic.get t.parts)

(* ---- statistics ---- *)


let has_stats (t : t) =
  match clean (Atomic.get t.parts) with
  | Some s -> Option.is_some (Atomic.get s.stats)
  | None -> false

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
  let s = whole t in
  fill (seg_stats s).columns.(i) (fun () -> describe s.image.cols.(i) s.image.nrows)

(* like the index, the mean period length reads the trailing two columns
   and exists only when both are null-free int columns *)
let mean_period (t : t) : float option =
  let s = whole t in
  fill (seg_stats s).mean_period (fun () ->
      match period_cols s.image with
      | Some (b, e) when Array.length b > 0 ->
          let sum = ref 0 in
          Array.iteri (fun i bi -> sum := !sum + (e.(i) - bi)) b;
          Some (float_of_int !sum /. float_of_int (Array.length b))
      | _ -> None)

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

let pp ppf (t : t) =
  let r = rows t in
  Array.sort Tuple.compare r;
  Format.fprintf ppf "@[<v>%a (%d rows)@,%a@]" Schema.pp t.schema
    (cardinality t)
    Fmt.(list ~sep:cut Tuple.pp)
    (Array.to_list r)

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

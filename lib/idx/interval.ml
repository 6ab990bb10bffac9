(** Endpoint-sorted interval index over a period table's
    [(Abegin, Aend)] columns.

    The index keeps the rows in sweep order (sorted by begin, ties by
    physical row id): [begins] is then a sorted array, and a probe for
    "begin within bound" is one binary search giving a prefix [\[0, ub)]
    of the sweep order.  The matching rows of that prefix — those whose
    end also satisfies the probe's lower bound — are reported by
    descending a max-end segment tree built over the ends, skipping every
    subtree whose maximum end fails the bound: output-sensitive
    O((k + 1) log n) per probe instead of O(n).

    Probes answer the two shapes the planner recognizes:
    - stab ([AS OF t]): rows alive at [t], i.e. [b <= t < e];
    - overlap range: rows with [b] within an upper bound and [e] within a
      lower bound, the generalized form every conjunction of period-column
      comparisons reduces to.

    Candidates are returned in {e ascending physical row order} — the
    scan emission order — so re-applying the full predicate to the
    candidates reproduces the scan byte-for-byte.

    A table value keeps one index per segment of its rows; a probe of
    the value probes each and scans a small unindexed tail with
    {!admits} (the engine's [Table.probe]). *)

type bound = {
  v : int;
  incl : bool;  (** [true]: bound is inclusive ([<=] resp. [>=]) *)
}

type t = {
  rows : int array;
      (* physical row ids in sweep order: sorted by (begin, row id) *)
  begins : int array;  (* begins.(k) = begin of rows.(k); ascending *)
  seg : int array;
      (* max-end segment tree: 1-based heap layout with [leaves] leaves,
         [seg.(leaves + k)] = the end of [rows.(k)], padded with
         [min_int] *)
  leaves : int;  (* power of two >= number of indexed rows *)
}

let size (t : t) = Array.length t.rows
let imax (a : int) (b : int) = if a >= b then a else b

(* The indices of [b] in sweep order: stably sorted by [b.(i)], ties in
   index order.  One radix sort ({!Isort.sort_below}) of the packed keys
   [((b.(i) - min) · 2^bits(n)) + i]; when the begins span too wide a
   range for that to fit an int, a stable merge sort stands in. *)
let sweep_perm (b : int array) : int array =
  let n = Array.length b in
  let lo = ref (if n = 0 then 0 else max_int) in
  let hi = ref (if n = 0 then 0 else min_int) in
  for i = 0 to n - 1 do
    let x = b.(i) in
    if x < !lo then lo := x;
    if x > !hi then hi := x
  done;
  let lo = !lo and range = !hi - !lo (* negative when it overflows *) in
  let ib = Isort.index_bits n in
  if range >= 0 && range < max_int lsr ib then begin
    let keys = Array.make n 0 in
    for i = 0 to n - 1 do
      keys.(i) <- ((b.(i) - lo) lsl ib) lor i
    done;
    Isort.sort_below keys ~bound:((range + 1) lsl ib);
    let mask = (1 lsl ib) - 1 in
    for k = 0 to n - 1 do
      keys.(k) <- keys.(k) land mask
    done;
    keys
  end
  else Isort.perm b

(** The index over the periods [\[b.(i), e.(i))] of physical rows [i];
    [b] and [e] have equal length. *)
let build (b : int array) (e : int array) : t =
  let rows = sweep_perm b in
  let m = Array.length rows in
  let leaves = 1 lsl Isort.index_bits m in
  let begins = Array.make m 0 and seg = Array.make (2 * leaves) min_int in
  for k = 0 to m - 1 do
    let i = rows.(k) in
    begins.(k) <- b.(i);
    seg.(leaves + k) <- e.(i)
  done;
  for node = leaves - 1 downto 1 do
    seg.(node) <- imax seg.(2 * node) seg.((2 * node) + 1)
  done;
  { rows; begins; seg; leaves }

(** Number of elements of the sorted array [a] that are [<= x]. *)
let upper_bound (a : int array) (x : int) : int =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) <= x then lo := mid + 1 else hi := mid
  done;
  !lo

(** Number of elements of the sorted array [a] that are [< x]. *)
let lower_bound (a : int array) (x : int) : int =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

(** [probe_scratch t ~b_hi ~e_lo]: {!probe}'s candidates as the first
    [k] cells of a {!Scratch} buffer, [(buffer, k)]; the caller releases
    the buffer ({!Scratch.release}) once it has read them. *)
let probe_scratch (t : t) ~(b_hi : bound) ~(e_lo : bound) : int array * int =
  let m = Array.length t.rows in
  (* prefix of the sweep order whose begins satisfy the upper bound *)
  let ub =
    if b_hi.incl then upper_bound t.begins b_hi.v
    else lower_bound t.begins b_hi.v
  in
  (* report ends as [>= min_end]; an exclusive max_int bound matches
     nothing (there is no end beyond max_int) *)
  let empty = (not e_lo.incl) && e_lo.v = max_int in
  let min_end = if e_lo.incl then e_lo.v else e_lo.v + 1 in
  if ub = 0 || m = 0 || empty then ([||], 0)
  else begin
    (* at most the [ub] rows of the prefix qualify *)
    let out = Scratch.get ub and k = ref 0 in
    (* descend left-to-right, skipping subtrees that are entirely past
       [ub] or whose max end is below the bound *)
    let rec report node lo hi =
      if lo < ub && t.seg.(node) >= min_end then
        if hi - lo = 1 then begin
          out.(!k) <- t.rows.(lo);
          incr k
        end
        else begin
          let mid = (lo + hi) / 2 in
          report (2 * node) lo mid;
          report ((2 * node) + 1) mid hi
        end
    in
    report 1 0 t.leaves;
    (* sweep order is by begin, not by row id: restore scan order *)
    Isort.sort_below ~len:!k out ~bound:m;
    (out, !k)
  end

(** Candidate rows with begin within [b_hi] (from above) and end within
    [e_lo] (from below), ascending by physical row id. *)
let probe (t : t) ~(b_hi : bound) ~(e_lo : bound) : int array =
  let buf, k = probe_scratch t ~b_hi ~e_lo in
  let a = Array.sub buf 0 k in
  Scratch.release buf;
  a

(** Whether the period [\[b, e)] passes {!probe}'s bounds: the rows a
    probe reports are exactly the indexed rows this admits. *)
let admits ~(b_hi : bound) ~(e_lo : bound) (b : int) (e : int) : bool =
  (if b_hi.incl then b <= b_hi.v else b < b_hi.v)
  && if e_lo.incl then e >= e_lo.v else e > e_lo.v

(** Rows alive at [t] ([b <= t < e]), ascending by physical row id. *)
let stab (t : t) (at : int) : int array =
  probe t ~b_hi:{ v = at; incl = true } ~e_lo:{ v = at; incl = false }

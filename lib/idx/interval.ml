(** Endpoint-sorted interval index over a period table's
    [(Abegin, Aend)] columns.

    The index keeps the rows in sweep order (sorted by begin, ties by
    physical row id): [begins] is then a sorted array, and a probe for
    "begin within bound" is one binary search giving a prefix [\[0, ub)]
    of the sweep order.  The matching rows of that prefix — those whose
    end also satisfies the probe's lower bound — are reported by
    descending a max-end segment tree built over [ends_], skipping every
    subtree whose maximum end fails the bound: output-sensitive
    O((k + 1) log n) per probe instead of O(n).

    Probes answer the two shapes the planner recognizes:
    - stab ([AS OF t]): rows alive at [t], i.e. [b <= t < e];
    - overlap range: rows with [b] within an upper bound and [e] within a
      lower bound, the generalized form every conjunction of period-column
      comparisons reduces to.

    Candidates are returned in {e ascending physical row order} — the
    scan emission order — so re-applying the full predicate to the
    candidates reproduces the scan byte-for-byte. *)

type bound = {
  v : int;
  incl : bool;  (** [true]: bound is inclusive ([<=] resp. [>=]) *)
}

type t = {
  rows : int array;
      (* physical row ids in sweep order: sorted by (begin, row id) *)
  begins : int array;  (* begins.(k) = begin of rows.(k); ascending *)
  ends_ : int array;  (* ends_.(k) = end of rows.(k) *)
  seg : int array;
      (* max-end segment tree over [ends_]: 1-based heap layout with
         [leaves] leaves, [seg.(leaves + k)] = [ends_.(k)], padded with
         [min_int] *)
  leaves : int;  (* power of two >= number of indexed rows *)
}

let size (t : t) = Array.length t.rows

(** The index over the periods [\[b.(i), e.(i))] of physical rows [i];
    [b] and [e] have equal length. *)
let build (b : int array) (e : int array) : t =
  let m = Array.length b in
  (* a stable sort by begin: ties stay in physical row order *)
  let rows = Isort.perm b in
  let begins = Array.map (fun i -> b.(i)) rows in
  let ends_ = Array.map (fun i -> e.(i)) rows in
  let leaves =
    let l = ref 1 in
    while !l < m do
      l := !l * 2
    done;
    !l
  in
  let seg = Array.make (2 * leaves) min_int in
  Array.blit ends_ 0 seg leaves m;
  for node = leaves - 1 downto 1 do
    seg.(node) <- max seg.(2 * node) seg.((2 * node) + 1)
  done;
  { rows; begins; ends_; seg; leaves }

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

(** Candidate rows with begin within [b_hi] (from above) and end within
    [e_lo] (from below), ascending by physical row id. *)
let probe (t : t) ~(b_hi : bound) ~(e_lo : bound) : int array =
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
  if ub = 0 || m = 0 || empty then [||]
  else begin
    let out = ref [] and k = ref 0 in
    (* descend left-to-right, skipping subtrees that are entirely past
       [ub] or whose max end is below the bound *)
    let rec report node lo hi =
      if lo < ub && t.seg.(node) >= min_end then
        if hi - lo = 1 then begin
          out := t.rows.(lo) :: !out;
          incr k
        end
        else begin
          let mid = (lo + hi) / 2 in
          report (2 * node) lo mid;
          report ((2 * node) + 1) mid hi
        end
    in
    report 1 0 t.leaves;
    let a = Array.make !k 0 in
    List.iteri (fun i r -> a.(!k - 1 - i) <- r) !out;
    (* sweep order is by begin, not by row id: restore scan order *)
    Isort.sort_below a ~bound:m;
    a
  end

(** Rows alive at [t] ([b <= t < e]), ascending by physical row id. *)
let stab (t : t) (at : int) : int array =
  probe t ~b_hi:{ v = at; incl = true } ~e_lo:{ v = at; incl = false }

(** Closure-free sorting for unboxed int data.

    [Array.sort Int.compare] pays an indirect call per comparison.
    [sort_below] needs no comparisons at all when the values are bounded:
    it puts index probe candidates back in scan order and orders the
    interval index's packed (begin, row) keys and the temporal sweeps'
    packed (group, time) endpoint keys.  [perm] and [perm_prefix] are
    bottom-up merge sorts that compare machine ints inline and return a
    {e stable} permutation (ties keep their original order), for the
    index build's and the sweeps' fallback when a packed key would not
    fit an int. *)

(** The number of bits that hold every index below [n]: the width of the
    row-id field in a packed sort key. *)
let index_bits n =
  let b = ref 0 in
  while 1 lsl !b < n do
    incr b
  done;
  !b

(** In-place ascending sort of [a]'s first [len] cells (default: all),
    whose values all lie in [\[0, bound)]: a least-significant-digit
    radix sort over 8-bit digits, O(len * digits) with no comparisons —
    for row ids, where the bound is the table size, and for the index's
    and the temporal sweeps' packed keys. *)
let sort_below ?len (a : int array) ~(bound : int) : unit =
  let n = Option.value len ~default:(Array.length a) in
  if n > 1 then begin
    let tmp = Scratch.get n in
    (* 256 words: a minor-heap block *)
    let start = Array.make 256 0 in
    let src = ref a and dst = ref tmp in
    let shift = ref 0 in
    (* a shift by the word size or more is undefined: stop there *)
    while !shift < Sys.int_size && (bound - 1) lsr !shift > 0 do
      let s = !src and d = !dst and sh = !shift in
      Array.fill start 0 256 0;
      for i = 0 to n - 1 do
        let b = (s.(i) lsr sh) land 255 in
        start.(b) <- start.(b) + 1
      done;
      (* counts to first output slots; the stable scatter keeps the
         order of the earlier digits *)
      let sum = ref 0 in
      for b = 0 to 255 do
        let c = start.(b) in
        start.(b) <- !sum;
        sum := !sum + c
      done;
      for i = 0 to n - 1 do
        let b = (s.(i) lsr sh) land 255 in
        d.(start.(b)) <- s.(i);
        start.(b) <- start.(b) + 1
      done;
      src := d;
      dst := s;
      shift := sh + 8
    done;
    (* after an odd number of passes the result sits in [tmp]: copy it
       back with a typed loop ([Array.blit] would write a major-heap
       [a] through the write barrier, cell by cell) *)
    if !src != a then
      for i = 0 to n - 1 do
        a.(i) <- tmp.(i)
      done;
    Scratch.release tmp
  end

(* merge src[lo,mid) and src[mid,hi) into dst, by keys.(index); [<=]
   keeps the left run's ties first, which makes the whole sort stable *)
let merge_perm (keys : int array) (src : int array) (dst : int array) lo mid hi
    =
  let i = ref lo and j = ref mid and k = ref lo in
  while !i < mid && !j < hi do
    if keys.(src.(!i)) <= keys.(src.(!j)) then begin
      dst.(!k) <- src.(!i);
      incr i
    end
    else begin
      dst.(!k) <- src.(!j);
      incr j
    end;
    incr k
  done;
  while !i < mid do
    dst.(!k) <- src.(!i);
    incr i;
    incr k
  done;
  while !j < hi do
    dst.(!k) <- src.(!j);
    incr j;
    incr k
  done

(** [perm_prefix keys n]: the indices [0..n-1] stably sorted ascending by
    [keys.(i)] (only the first [n] cells of [keys] are consulted). *)
let perm_prefix (keys : int array) (n : int) : int array =
  let a = Array.init n Fun.id in
  if n > 1 then begin
    let b = Array.make n 0 in
    let src = ref a and dst = ref b in
    let width = ref 1 in
    while !width < n do
      let lo = ref 0 in
      while !lo < n do
        let mid = min (!lo + !width) n in
        let hi = min (!lo + (2 * !width)) n in
        merge_perm keys !src !dst !lo mid hi;
        lo := hi
      done;
      let t = !src in
      src := !dst;
      dst := t;
      width := !width * 2
    done;
    !src
  end
  else a

(** [perm keys]: {!perm_prefix} over all of [keys]. *)
let perm (keys : int array) : int array = perm_prefix keys (Array.length keys)

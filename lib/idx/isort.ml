(** Closure-free sorting for unboxed int data.

    [Array.sort Int.compare] pays an indirect call per comparison, which
    dominates the temporal sweeps' endpoint sorting.  These bottom-up
    merge sorts compare machine ints inline; [perm]/[perm_prefix] return a
    {e stable} permutation (ties keep their original order), which is what
    the sweeps rely on to reproduce the row oracle's first-appearance
    ordering.  [sort_below] needs no comparisons at all when the values
    are bounded, as row ids are: it puts index probe candidates back in
    scan order. *)

(* merge src[lo,mid) and src[mid,hi) into dst, by value *)
let merge_vals (src : int array) (dst : int array) lo mid hi =
  let i = ref lo and j = ref mid and k = ref lo in
  while !i < mid && !j < hi do
    if src.(!i) <= src.(!j) then begin
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

(** In-place ascending sort of [a]. *)
let sort (a : int array) : unit =
  let n = Array.length a in
  if n > 1 then begin
    let b = Scratch.get n in
    let src = ref a and dst = ref b in
    let width = ref 1 in
    while !width < n do
      let lo = ref 0 in
      while !lo < n do
        let mid = min (!lo + !width) n in
        let hi = min (!lo + (2 * !width)) n in
        merge_vals !src !dst !lo mid hi;
        lo := hi
      done;
      let t = !src in
      src := !dst;
      dst := t;
      width := !width * 2
    done;
    if !src != a then Array.blit !src 0 a 0 n;
    Scratch.release b
  end

(** In-place ascending sort of [a], whose values all lie in
    [\[0, bound)]: a least-significant-digit radix sort over 8-bit
    digits, O(length * digits) with no comparisons — for row ids, where
    the bound is the table size. *)
let sort_below (a : int array) ~(bound : int) : unit =
  let n = Array.length a in
  if n > 1 then begin
    let tmp = Scratch.get n in
    (* 256 words: a minor-heap block *)
    let start = Array.make 256 0 in
    let src = ref a and dst = ref tmp in
    let shift = ref 0 in
    while (bound - 1) lsr !shift > 0 do
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
    if !src != a then Array.blit !src 0 a 0 n;
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

(** Reused scratch int arrays: the private buffers of the vectorized
    operators and of the index probe's sort.

    OCaml 5 allocates every array longer than 256 words (the runtime's
    [Max_young_wosize]) directly in the major heap, so an operator's
    private int arrays (hash slots, group ids, bucket offsets, selection
    buffers) are major allocations on every execution, and a stream of
    them inflates the heap between collections.  Operators take such
    arrays from this free list and give them back when they finish; the
    next execution reuses them.

    Arrays of more than 256 words are pooled in power-of-two size
    classes; shorter requests are plain minor-heap allocations of the
    exact size and are never retained.  Contents are unspecified on
    {!get}: callers initialize what they read.  A released array must
    not be used again by the releaser, and an array that escapes into a
    result must never be released.  The list is shared by every thread
    (server connections execute concurrently) behind one mutex, and retains
    at most [max_retained_words] words, preferring small arrays when
    full. *)

let max_retained_words = 1 lsl 19 (* 4 MiB on 64-bit *)
let pooled_min = 257
let lock = Mutex.create ()
let free : int array list array = Array.make Sys.int_size []
let retained = ref 0

(* the class of [n]: the smallest [c] with [1 lsl c >= n] *)
let class_of n =
  let c = ref 0 in
  while 1 lsl !c < n do
    incr c
  done;
  !c

(** An int array of length at least [n]: exactly [n] when [n] is a power
    of two or small, else the next power of two. *)
let get (n : int) : int array =
  if n < pooled_min then Array.make (max n 0) 0
  else begin
    let c = class_of n in
    Mutex.lock lock;
    match free.(c) with
    | a :: rest ->
        free.(c) <- rest;
        retained := !retained - Array.length a;
        Mutex.unlock lock;
        a
    | [] ->
        Mutex.unlock lock;
        Array.make (1 lsl c) 0
  end

(* Make room for [len] more words by dropping arrays of classes larger
   than [c], largest first: small buffers are the common case, so a list
   filled by one large query keeps serving the small ones.  [false] when
   only arrays of class [c] or smaller stand in the way. *)
let rec make_room len c =
  !retained + len <= max_retained_words
  ||
  let k = ref (Array.length free - 1) in
  while !k > c && free.(!k) = [] do
    decr k
  done;
  match free.(!k) with
  | a :: rest when !k > c ->
      free.(!k) <- rest;
      retained := !retained - Array.length a;
      make_room len c
  | _ -> false

(** Give [a] back for reuse (dropped when small, not a power of two, or
    the list has no room for it). *)
let release (a : int array) : unit =
  let len = Array.length a in
  if len >= pooled_min && len land (len - 1) = 0 then begin
    Mutex.lock lock;
    let c = class_of len in
    if make_room len c then begin
      free.(c) <- a :: free.(c);
      retained := !retained + len
    end;
    Mutex.unlock lock
  end

(** [scoped f] runs [f get] where [get] is {!get}, and releases every
    array [get] handed out once [f] returns: the arrays must not escape
    [f]. *)
let scoped f =
  let taken = ref [] in
  let get n =
    let a = get n in
    taken := a :: !taken;
    a
  in
  let r = f get in
  List.iter release !taken;
  r

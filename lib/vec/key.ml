(** Group-id assignment over column subsets: the vectorized engine's
    replacement for [Hashtbl]s keyed by projected {!Tuple.t}s.

    A keyset interns rows — identified by (source, physical row index)
    where a {e source} is a registered array of columns — into dense group
    ids [0, 1, 2, ...] assigned in first-appearance order.  That order is
    load-bearing: the row oracle emits groups (DISTINCT firsts, GROUP BY
    groups, coalesce prefixes) in first-appearance order, and the
    vectorized operators inherit it from the keyset for free.

    Equality is the row oracle's key equality, i.e. structural
    [Stdlib.compare = 0] on boxed values ({!Value.compare} = 0): NULLs
    compare equal to NULLs, [Int 1] and [Float 1.] are distinct keys, and
    [-0.0]/[0.0] (and NaNs) coincide.  Hashes are computed from the
    unboxed representation but agree across representations (a boxed
    [Int] hashes like an [int array] cell), so a typed column and a boxed
    fallback column can meet in one keyset. *)

open Tkr_relation
module Scratch = Tkr_idx.Scratch
module Batch = Tkr_engine.Batch

let null_hash = 0x4e55
let mix h x = (h * 0x01000193) lxor (x land max_int)

let hash_cell (c : Batch.col) (i : int) : int =
  if Batch.is_null_at c i then null_hash
  else
    match c.data with
    | Batch.Ints a -> mix 2 (Hashtbl.hash a.(i))
    | Batch.Floats a -> mix 3 (Hashtbl.hash a.(i))
    | Batch.Bools a -> mix 1 (Hashtbl.hash a.(i))
    | Batch.Strs a -> mix 4 (Hashtbl.hash a.(i))
    | Batch.Boxed a -> (
        match a.(i) with
        | Value.Null -> null_hash (* unreachable: is_null_at caught it *)
        | Value.Bool v -> mix 1 (Hashtbl.hash v)
        | Value.Int v -> mix 2 (Hashtbl.hash v)
        | Value.Float v -> mix 3 (Hashtbl.hash v)
        | Value.Str v -> mix 4 (Hashtbl.hash v))

let eq_cell (c1 : Batch.col) (i1 : int) (c2 : Batch.col) (i2 : int) : bool =
  let n1 = Batch.is_null_at c1 i1 and n2 = Batch.is_null_at c2 i2 in
  if n1 || n2 then n1 && n2
  else
    match (c1.data, c2.data) with
    | Batch.Ints a, Batch.Ints b -> Int.equal a.(i1) b.(i2)
    | Batch.Floats a, Batch.Floats b -> Float.compare a.(i1) b.(i2) = 0
    | Batch.Bools a, Batch.Bools b -> Bool.equal a.(i1) b.(i2)
    | Batch.Strs a, Batch.Strs b -> String.equal a.(i1) b.(i2)
    | _ ->
        (* mixed representations (boxed fallback involved) or mixed typed
           variants: box and compare canonically *)
        Value.compare (Batch.value c1 i1) (Batch.value c2 i2) = 0

let hash_row (cols : Batch.col array) (i : int) : int =
  let h = ref 0x811c9dc5 in
  for j = 0 to Array.length cols - 1 do
    h := mix !h (hash_cell cols.(j) i)
  done;
  !h land max_int

let eq_row (cols1 : Batch.col array) (i1 : int) (cols2 : Batch.col array)
    (i2 : int) : bool =
  let k = Array.length cols1 in
  let rec go j = j >= k || (eq_cell cols1.(j) i1 cols2.(j) i2 && go (j + 1)) in
  go 0

(* All-int fast path.  When every column of every source is an unboxed
   [Ints] array with no validity mask, hashing degenerates to integer
   mixing and equality to [=] on array cells — no polymorphic hash, no
   per-cell NULL checks.  The choice is made once at {!create}; a keyset
   uses one hash function throughout, so cached entry hashes stay
   consistent. *)

let eq_int_row (c1 : int array array) (i1 : int) (c2 : int array array)
    (i2 : int) : bool =
  let k = Array.length c1 in
  let rec go j = j >= k || (c1.(j).(i1) = c2.(j).(i2) && go (j + 1)) in
  go 0

let hash_int_row (cols : int array array) (i : int) : int =
  let h = ref 0x811c9dc5 in
  for j = 0 to Array.length cols - 1 do
    let x = cols.(j).(i) * 0x9E3779B97F4A7C1 in
    h := (!h * 0x01000193) lxor x lxor (x lsr 31)
  done;
  !h land max_int

type t = {
  srcs : Batch.col array array;  (** registered key-column sets *)
  ints : int array array array option;
      (** raw arrays per source when every key column is null-free [Ints] *)
  mutable slots : int array;  (** entry id + 1; 0 = empty *)
  mutable mask : int;  (** capacity - 1 (capacity a power of two) *)
  mutable count : int;
  mutable e_src : int array;  (** per entry: source id *)
  mutable e_row : int array;  (** per entry: physical row in its source *)
  mutable e_hash : int array;
}

let create ?(hint = 16) (srcs : Batch.col array array) : t =
  let cap = ref 16 in
  while !cap < hint * 2 do
    cap := !cap * 2
  done;
  let all_ints =
    Array.for_all
      (Array.for_all (fun (c : Batch.col) ->
           match (c.Batch.data, c.Batch.nulls) with
           | Batch.Ints _, None -> true
           | _ -> false))
      srcs
  in
  let ints =
    if not all_ints then None
    else
      Some
        (Array.map
           (Array.map (fun (c : Batch.col) ->
                match c.Batch.data with
                | Batch.Ints a -> a
                | _ -> assert false))
           srcs)
  in
  (* slot and entry arrays are scratch buffers: [cap] is a power of two,
     so each comes back exactly [cap] long *)
  let slots = Scratch.get !cap in
  Array.fill slots 0 !cap 0;
  {
    srcs;
    ints;
    slots;
    mask = !cap - 1;
    count = 0;
    e_src = Scratch.get !cap;
    e_row = Scratch.get !cap;
    e_hash = Scratch.get !cap;
  }

(** Give the keyset's arrays back to {!Scratch}; the keyset must not be
    used afterwards. *)
let release t =
  Scratch.release t.slots;
  Scratch.release t.e_src;
  Scratch.release t.e_row;
  Scratch.release t.e_hash;
  t.slots <- [||];
  t.e_src <- [||];
  t.e_row <- [||];
  t.e_hash <- [||]

let count t = t.count
let entry_src t e = t.e_src.(e)
let entry_row t e = t.e_row.(e)

(* slot index holding an equal entry, or the insertion slot (empty). *)
let find_slot t ~hash ~(cols : Batch.col array) ~(row : int) : int =
  let rec go i =
    let s = t.slots.(i) in
    if s = 0 then i
    else
      let e = s - 1 in
      if
        t.e_hash.(e) = hash
        && eq_row t.srcs.(t.e_src.(e)) t.e_row.(e) cols row
      then i
      else go ((i + 1) land t.mask)
  in
  go (hash land t.mask)

let find_slot_int t (srcs : int array array array) ~hash
    ~(cols : int array array) ~(row : int) : int =
  let rec go i =
    let s = t.slots.(i) in
    if s = 0 then i
    else
      let e = s - 1 in
      if
        t.e_hash.(e) = hash
        && eq_int_row srcs.(t.e_src.(e)) t.e_row.(e) cols row
      then i
      else go ((i + 1) land t.mask)
  in
  go (hash land t.mask)

let grow t =
  let old_slots = t.slots in
  let cap = (t.mask + 1) * 2 in
  t.slots <- Scratch.get cap;
  Array.fill t.slots 0 cap 0;
  t.mask <- cap - 1;
  let regrow old =
    let a = Scratch.get cap in
    Array.blit old 0 a 0 t.count;
    Scratch.release old;
    a
  in
  t.e_src <- regrow t.e_src;
  t.e_row <- regrow t.e_row;
  t.e_hash <- regrow t.e_hash;
  (* reinsert by cached hash; entries keep their ids *)
  Array.iter
    (fun s ->
      if s <> 0 then begin
        let e = s - 1 in
        let rec place i =
          if t.slots.(i) = 0 then t.slots.(i) <- s
          else place ((i + 1) land t.mask)
        in
        place (t.e_hash.(e) land t.mask)
      end)
    old_slots;
  Scratch.release old_slots

(** Intern (source, row): the existing group id when an equal row was
    interned before, otherwise the next fresh id (ids are dense, in
    first-appearance order). *)
let intern t ~(src : int) ~(row : int) : int =
  if (t.count + 1) * 4 > (t.mask + 1) * 3 then grow t;
  let hash, i =
    match t.ints with
    | Some srcs ->
        let cols = srcs.(src) in
        let hash = hash_int_row cols row in
        (hash, find_slot_int t srcs ~hash ~cols ~row)
    | None ->
        let cols = t.srcs.(src) in
        let hash = hash_row cols row in
        (hash, find_slot t ~hash ~cols ~row)
  in
  if t.slots.(i) <> 0 then t.slots.(i) - 1
  else begin
    let e = t.count in
    t.slots.(i) <- e + 1;
    t.e_src.(e) <- src;
    t.e_row.(e) <- row;
    t.e_hash.(e) <- hash;
    t.count <- e + 1;
    e
  end

(** The group id of (source, row), or [-1] when absent. *)
let lookup t ~(src : int) ~(row : int) : int =
  let i =
    match t.ints with
    | Some srcs ->
        let cols = srcs.(src) in
        find_slot_int t srcs ~hash:(hash_int_row cols row) ~cols ~row
    | None ->
        let cols = t.srcs.(src) in
        find_slot t ~hash:(hash_row cols row) ~cols ~row
  in
  if t.slots.(i) = 0 then -1 else t.slots.(i) - 1

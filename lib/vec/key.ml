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
    [-0.0]/[0.0] (and NaNs) coincide.

    A keyset takes one of two paths, chosen once at {!create}:
    - {b direct}: every key column of every source is a null-free [Ints]
      column and the product of the columns' value ranges (over every
      source's selected rows) is at most {!direct_factor} times those
      rows.  A row's packed key [Σ (v_j − lo_j) · stride_j] is then its
      slot in a table of that span: no hash and no equality test.
    - {b hashed}: any other key.  A source's row hashes are computed a
      column at a time, on its first use, with one typed loop per int or
      float column and one [Hashtbl.hash] per text cell (a source with a
      selection hashes its selected rows a cell at a time instead);
      equal keys hash alike whatever their representation (a boxed
      [Int] cell like an [Ints] cell, [-0.0] like [0.0], every NaN
      alike), so a typed column and a boxed fallback column can meet in
      one keyset.  All-int keys hash each row inline to the same values.
      Hits are confirmed by the key equality above (on the raw arrays
      for all-int keys).

    Neither path allocates per intern or lookup. *)

open Tkr_relation
module Scratch = Tkr_idx.Scratch
module Batch = Tkr_engine.Batch

(* ---- typed hashes ---- *)

let seed = 0x811c9dc5
let null_hash = 0x4e55

(* an int's hash: the golden-ratio product with its high half folded
   into the low bits, which pick the slot *)
let[@inline] hash_int v =
  let x = v * 0x9E3779B97F4A7C1 in
  x lxor (x lsr 32)

(* a float's, from its bits: the keys [Value.compare] equates (-0.0 and
   0.0, any two NaNs) hash alike *)
let[@inline] hash_float f =
  if f = 0. then 0
  else if Float.is_nan f then hash_int 0x7ff8
  else hash_int (Int64.to_int (Int64.bits_of_float f))

let[@inline] hash_bool b = hash_int (Bool.to_int b)
let[@inline] mix h c = (h * 0x01000193) lxor c

let hash_value = function
  | Value.Null -> null_hash
  | Value.Int v -> hash_int v
  | Value.Float f -> hash_float f
  | Value.Bool b -> hash_bool b
  | Value.Str s -> Hashtbl.hash s

(* one cell's hash: NULL cells (masked or boxed) as [null_hash] *)
let hash_cell (c : Batch.col) (i : int) : int =
  if Batch.null_in c.Batch.nulls i then null_hash
  else
    match c.Batch.data with
    | Batch.Ints a -> hash_int a.(i)
    | Batch.Floats a -> hash_float a.(i)
    | Batch.Bools a -> hash_bool a.(i)
    | Batch.Strs a -> Hashtbl.hash a.(i)
    | Batch.Boxed a -> hash_value a.(i)

(* mix column [c]'s cells into the row hashes [h.(0 .. n-1)]: one loop
   per representation for ints and floats; text (a [Hashtbl.hash] per
   cell), bools and boxed cells go through [hash_cell] *)
let hash_col (c : Batch.col) (h : int array) (n : int) : unit =
  match (c.Batch.data, c.Batch.nulls) with
  | Batch.Ints a, None ->
      for i = 0 to n - 1 do
        h.(i) <- mix h.(i) (hash_int a.(i))
      done
  | Batch.Ints a, Some m ->
      for i = 0 to n - 1 do
        h.(i) <- mix h.(i) (if m.(i) then null_hash else hash_int a.(i))
      done
  | Batch.Floats a, None ->
      for i = 0 to n - 1 do
        h.(i) <- mix h.(i) (hash_float a.(i))
      done
  | Batch.Floats a, Some m ->
      for i = 0 to n - 1 do
        h.(i) <- mix h.(i) (if m.(i) then null_hash else hash_float a.(i))
      done
  | _ ->
      for i = 0 to n - 1 do
        h.(i) <- mix h.(i) (hash_cell c i)
      done

(* a row's hash, a cell at a time: the value [hash_col] gives it *)
let hash_row (cols : Batch.col array) (row : int) : int =
  let h = ref seed in
  for j = 0 to Array.length cols - 1 do
    h := mix !h (hash_cell cols.(j) row)
  done;
  !h

let data_length (c : Batch.col) : int =
  match c.Batch.data with
  | Batch.Ints a -> Array.length a
  | Batch.Floats a -> Array.length a
  | Batch.Bools a -> Array.length a
  | Batch.Strs a -> Array.length a
  | Batch.Boxed a -> Array.length a

(* ---- key equality (hashed path) ---- *)

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

let eq_row (cols1 : Batch.col array) (i1 : int) (cols2 : Batch.col array)
    (i2 : int) : bool =
  let k = Array.length cols1 in
  let j = ref 0 in
  while !j < k && eq_cell cols1.(!j) i1 cols2.(!j) i2 do
    incr j
  done;
  !j = k

(* ---- direct addressing ---- *)

(** A keyset addresses its keys directly when their packed span is at
    most this many times the sources' rows. *)
let direct_factor = 4

(* each source's key arrays when every key column of every source is a
   null-free [Ints] column *)
let int_arrays (srcs : Batch.col array array) : int array array array option =
  if
    Array.for_all
      (Array.for_all (fun (c : Batch.col) ->
           match (c.Batch.data, c.Batch.nulls) with
           | Batch.Ints _, None -> true
           | _ -> false))
      srcs
  then
    Some
      (Array.map
         (Array.map (fun (c : Batch.col) ->
              match c.Batch.data with Batch.Ints a -> a | _ -> assert false))
         srcs)
  else None

(* widen [lo, hi] to cover every [step]th row of [a] that [sel] lists
   (every row without [sel]) *)
let widen (a : int array) (sel : int array option) ~step (lo : int ref)
    (hi : int ref) : unit =
  let l = ref !lo and h = ref !hi and k = ref 0 in
  (match sel with
  | None ->
      while !k < Array.length a do
        let v = a.(!k) in
        if v < !l then l := v;
        if v > !h then h := v;
        k := !k + step
      done
  | Some rows ->
      while !k < Array.length rows do
        let v = a.(rows.(!k)) in
        if v < !l then l := v;
        if v > !h then h := v;
        k := !k + step
      done);
  lo := !l;
  hi := !h

(* [Some (lo, stride, span)] when the product of the key columns' ranges
   over every source's rows ([ints], at the rows [sels] lists; [rows] of
   them) is at most [direct_factor] times those rows (checked without
   overflow): per column its minimum and its multiplier in the packed
   key [Σ (v_j − lo_j) · stride_j], and the product.  Ranges over every
   64th row come first: they can only be narrower, so when they already
   overflow the bound the full scans are skipped. *)
let direct_layout (sels : int array option array) ~rows
    (ints : int array array array) =
  let k = if Array.length ints = 0 then 0 else Array.length ints.(0) in
  let limit = direct_factor * max rows 1 in
  let lo = Array.make k 0 and stride = Array.make k 0 in
  (* the product of the column ranges over the rows [step] apart,
     filling [lo] and [stride]; [-1] past the bound *)
  let span step =
    let span = ref 1 and j = ref 0 in
    while !j < k && !span >= 0 do
      let l = ref max_int and h = ref min_int in
      Array.iteri (fun s cols -> widen cols.(!j) sels.(s) ~step l h) ints;
      (* no cells at all: a one-value range *)
      if !h < !l then (l := 0; h := 0);
      let d = !h - !l (* negative when the range overflows *) in
      if d < 0 || d >= limit || !span > limit / (d + 1) then span := -1
      else begin
        lo.(!j) <- !l;
        stride.(!j) <- !span;
        span := !span * (d + 1)
      end;
      incr j
    done;
    !span
  in
  if span 64 < 0 then None
  else
    let span = span 1 in
    if span < 0 then None else Some (lo, stride, span)

(* ---- the keyset ---- *)

type t = {
  srcs : Batch.col array array;  (** registered key-column sets *)
  ints : int array array array option;
      (** each source's key arrays, when all are null-free [Ints] *)
  direct : bool;
  lo : int array;  (** direct: each key column's minimum *)
  stride : int array;  (** direct: each key column's multiplier *)
  sels : int array option array;
      (** each source's selection: the only rows it interns or looks up *)
  hashes : int array array;
      (** hashed: each source's row hashes, by physical row ([||] until
          its first use) *)
  mutable slots : int array;
      (** entry id + 1, 0 = empty: by packed key (direct) or by probe
          position (hashed) *)
  mutable mask : int;  (** hashed: slot count - 1 (a power of two) *)
  mutable count : int;
  mutable e_src : int array;  (** per entry: source id *)
  mutable e_row : int array;  (** per entry: physical row in its source *)
  mutable e_hash : int array;  (** hashed, per entry: its row hash *)
}

let pow2_at_least n =
  let c = ref 16 in
  while !c < n do
    c := !c * 2
  done;
  !c

(** A keyset over [srcs]; [sels] gives each source's selection (default:
    none), and a source with one interns and looks up only the rows it
    lists. *)
let create ?(hint = 16) ?sels (srcs : Batch.col array array) : t =
  let nsrc = Array.length srcs in
  let sels = match sels with Some s -> s | None -> Array.make nsrc None in
  let ints = int_arrays srcs in
  let rows =
    Array.fold_left ( + ) 0
      (Array.mapi
         (fun s sel ->
           match (sel, srcs.(s)) with
           | Some r, _ -> Array.length r
           | None, [||] -> 0
           | None, cols -> data_length cols.(0))
         sels)
  in
  let direct, lo, stride, nslots =
    match Option.bind ints (direct_layout sels ~rows) with
    | Some (lo, stride, span) -> (true, lo, stride, span)
    | None -> (false, [||], [||], pow2_at_least (hint * 2))
  in
  (* slot and entry arrays are scratch buffers: entry capacities are
     powers of two, so each comes back exactly that long *)
  let slots = Scratch.get (max nslots 1) in
  Array.fill slots 0 nslots 0;
  let cap = pow2_at_least (if direct then min hint nslots else nslots) in
  {
    srcs;
    ints;
    direct;
    lo;
    stride;
    sels;
    hashes = Array.make nsrc [||];
    slots;
    mask = nslots - 1;
    count = 0;
    e_src = Scratch.get cap;
    e_row = Scratch.get cap;
    e_hash = (if direct then [||] else Scratch.get cap);
  }

(** Give the keyset's arrays back to {!Scratch}; the keyset must not be
    used afterwards. *)
let release t =
  Scratch.release t.slots;
  Scratch.release t.e_src;
  Scratch.release t.e_row;
  Scratch.release t.e_hash;
  for s = 0 to Array.length t.hashes - 1 do
    Scratch.release t.hashes.(s)
  done;
  t.slots <- [||];
  t.e_src <- [||];
  t.e_row <- [||];
  t.e_hash <- [||]

let count t = t.count
let entry_row t e = t.e_row.(e)

(** Whether the keyset addresses its keys directly (no hashing). *)
let direct t = t.direct

let regrow cap count old =
  let a = Scratch.get cap in
  Array.blit old 0 a 0 count;
  Scratch.release old;
  a

(* a fresh entry for (src, row) *)
let[@inline] add_entry t ~src ~row : int =
  let e = t.count in
  if e = Array.length t.e_row then begin
    t.e_src <- regrow (2 * e) e t.e_src;
    t.e_row <- regrow (2 * e) e t.e_row
  end;
  t.e_src.(e) <- src;
  t.e_row.(e) <- row;
  t.count <- e + 1;
  e

(* ---- direct path ---- *)

(* a row's packed key, its slot; one column (every join's key) needs no
   multiply *)
let[@inline] pack t (cols : int array array) (row : int) : int =
  if Array.length cols = 1 then cols.(0).(row) - t.lo.(0)
  else begin
    let key = ref 0 in
    for j = 0 to Array.length cols - 1 do
      key := !key + ((cols.(j).(row) - t.lo.(j)) * t.stride.(j))
    done;
    !key
  end

let intern_direct t (ints : int array array array) ~src ~row =
  let slot = pack t ints.(src) row in
  let s = t.slots.(slot) in
  if s <> 0 then s - 1
  else begin
    let e = add_entry t ~src ~row in
    t.slots.(slot) <- e + 1;
    e
  end

(* ---- hashed path ---- *)

(* [src]'s row hashes, computed a column at a time on first use *)
let source_hashes t src =
  if Array.length t.hashes.(src) > 0 then t.hashes.(src)
  else begin
    let cols = t.srcs.(src) in
    let n = if Array.length cols = 0 then 0 else data_length cols.(0) in
    let h = Scratch.get (max n 1) in
    Array.fill h 0 n seed;
    for j = 0 to Array.length cols - 1 do
      hash_col cols.(j) h n
    done;
    t.hashes.(src) <- h;
    h
  end

(* an all-int row's hash, inline: the value [hash_col] gives it *)
let hash_int_row (cols : int array array) (row : int) : int =
  let h = ref seed in
  for j = 0 to Array.length cols - 1 do
    h := mix !h (hash_int cols.(j).(row))
  done;
  !h

let eq_int_row (c1 : int array array) (i1 : int) (c2 : int array array)
    (i2 : int) : bool =
  let k = Array.length c1 in
  let j = ref 0 in
  while !j < k && c1.(!j).(i1) = c2.(!j).(i2) do
    incr j
  done;
  !j = k

(* The slot holding an entry equal to the all-int (src, row) of hash
   [hash], or the empty slot where it goes; linear probing over the raw
   arrays.  All-int keys hash each row inline, since with no
   representation to dispatch on that measured faster than a column
   pass. *)
let find_int t (ints : int array array array) ~hash ~src ~(row : int) : int =
  let slots = t.slots and mask = t.mask and e_hash = t.e_hash in
  let cols = ints.(src) in
  let i = ref (hash land mask) in
  while
    let s = slots.(!i) in
    s <> 0
    && not
         (e_hash.(s - 1) = hash
         && eq_int_row ints.(t.e_src.(s - 1)) t.e_row.(s - 1) cols row)
  do
    i := (!i + 1) land mask
  done;
  !i

(* [find_int] for any other key, by the oracle's key equality *)
let find_slot t ~hash ~src ~(row : int) : int =
  let slots = t.slots and mask = t.mask and e_hash = t.e_hash in
  let cols = t.srcs.(src) in
  let i = ref (hash land mask) in
  while
    let s = slots.(!i) in
    s <> 0
    && not
         (e_hash.(s - 1) = hash
         && eq_row t.srcs.(t.e_src.(s - 1)) t.e_row.(s - 1) cols row)
  do
    i := (!i + 1) land mask
  done;
  !i

(* A row's hash for [find_slot]: its source's column-made hash, unless
   the source has a selection: its rows then hash a cell at a time, as
   they come, so that the work follows the rows selected, not the rows
   stored. *)
let[@inline] row_hash t ~src ~row =
  match t.sels.(src) with
  | None -> (source_hashes t src).(row)
  | Some _ -> hash_row t.srcs.(src) row

(* double the slots, reinserting every entry by its hash; entries keep
   their ids *)
let grow t =
  let nslots = 2 * (t.mask + 1) in
  Scratch.release t.slots;
  t.slots <- Scratch.get nslots;
  Array.fill t.slots 0 nslots 0;
  t.mask <- nslots - 1;
  t.e_hash <- regrow nslots t.count t.e_hash;
  for e = 0 to t.count - 1 do
    let i = ref (t.e_hash.(e) land t.mask) in
    while t.slots.(!i) <> 0 do
      i := (!i + 1) land t.mask
    done;
    t.slots.(!i) <- e + 1
  done

(* the entry in slot [i] (found by a probe for [hash]), or a fresh one
   for (src, row) placed there *)
let[@inline] claim t i ~hash ~src ~row : int =
  let s = t.slots.(i) in
  if s <> 0 then s - 1
  else begin
    let e = add_entry t ~src ~row in
    t.slots.(i) <- e + 1;
    t.e_hash.(e) <- hash;
    e
  end

(** Intern (source, row): the existing group id when an equal row was
    interned before, otherwise the next fresh id (ids are dense, in
    first-appearance order). *)
let intern t ~(src : int) ~(row : int) : int =
  match t.ints with
  | Some ints when t.direct -> intern_direct t ints ~src ~row
  | Some ints ->
      if (t.count + 1) * 4 > (t.mask + 1) * 3 then grow t;
      let hash = hash_int_row ints.(src) row in
      claim t (find_int t ints ~hash ~src ~row) ~hash ~src ~row
  | None ->
      if (t.count + 1) * 4 > (t.mask + 1) * 3 then grow t;
      let hash = row_hash t ~src ~row in
      claim t (find_slot t ~hash ~src ~row) ~hash ~src ~row

(** The group id of (source, row), or [-1] when absent. *)
let lookup t ~(src : int) ~(row : int) : int =
  match t.ints with
  | Some ints when t.direct -> t.slots.(pack t ints.(src) row) - 1
  | Some ints ->
      t.slots.(find_int t ints ~hash:(hash_int_row ints.(src) row) ~src ~row) - 1
  | None -> t.slots.(find_slot t ~hash:(row_hash t ~src ~row) ~src ~row) - 1

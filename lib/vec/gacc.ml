(** Per-group aggregate state for the vectorized γ ({!Vexec.aggregate})
    and the pre-aggregates of {!Vexec.split_agg}: one kernel, one
    (group, aggregate) {e slot} per pair, [g · naggs + j].

    A typed slot keeps two unboxed cells: a count — every row for
    [count( * )], the non-NULL inputs for every other aggregate — and
    one running value, the sum (SUM, AVG), minimum or maximum of the
    non-NULL inputs, written at the first of them.  Int inputs run in an
    [int array], float inputs in a [float array]: no cell is boxed and
    no record is allocated per row.  A step is {!Agg.step}'s effect on
    the one field its aggregate reads: the same additions in the same
    order (so float sums round identically when a group folds its rows
    in input order), and {!Value.sql_compare}'s tie-breaking for
    MIN/MAX, under which the first of equal values stays (NaN sorts
    first; [-0.0] and [0.0] tie).  {!emit} is {!Agg.final}'s result.

    An input kept boxed (a boxed or mixed column, a text or bool
    MIN/MAX) keeps a boxed {!Agg.acc} per slot and folds it with
    {!Agg.step}.  Slot arrays start at [cap] groups and double as groups
    are added. *)

open Tkr_relation
module Batch = Tkr_engine.Batch
module Scratch = Tkr_idx.Scratch

(* one aggregate's input, read at a row of its (dense) column *)
type input =
  | Rows  (** [count( * )]: every row counts *)
  | Nonnull of Batch.col  (** [count(e)]: the non-NULL rows count *)
  | Ints of int array * bool array option
  | Floats of float array * bool array option
  | Boxed of Batch.col option  (** {!Agg.step} per row; [None]: [Int 1] *)

type t = {
  funcs : Agg.func array;
  inputs : input array;
  naggs : int;
  mutable groups : int;
  mutable cap : int;  (* groups the slot arrays hold *)
  mutable cnt : int array;
  mutable iv : int array;  (* running values of int inputs *)
  mutable fv : float array;  (* of float inputs *)
  mutable bv : Agg.acc array;  (* the boxed inputs' accumulators *)
}

let is_boxed = function Boxed _ -> true | _ -> false

let input_of ~floats (func : Agg.func) (c : Batch.col option) : input =
  match (func, c) with
  | _, None -> Rows
  | Agg.Count _, Some c -> Nonnull c
  | _, Some { Batch.data = Batch.Ints a; nulls } -> Ints (a, nulls)
  | _, Some { Batch.data = Batch.Floats a; nulls } when floats -> Floats (a, nulls)
  | _, c -> Boxed c

let alloc t cap =
  let slots = max (cap * t.naggs) 1 in
  let has p = Array.exists p t.inputs in
  let grow_int old =
    let a = Scratch.get slots in
    Array.blit old 0 a 0 (t.groups * t.naggs);
    Scratch.release old;
    a
  in
  let grow old fill =
    let a = Array.make slots fill in
    Array.blit old 0 a 0 (t.groups * t.naggs);
    a
  in
  t.cnt <- grow_int t.cnt;
  if has (function Ints _ -> true | _ -> false) then t.iv <- grow_int t.iv;
  if has (function Floats _ -> true | _ -> false) then t.fv <- grow t.fv 0.;
  if has is_boxed then t.bv <- grow t.bv Agg.empty;
  t.cap <- cap

(** The state of [specs] over their input columns [cols] (dense, [None]
    for [count( * )]), for [cap] groups before the first growth.  Float
    inputs run typed unless [sweep]: {!Vexec.split_agg}'s sweep enters
    and leaves int counters ({!shift}) and folds {!Agg.acc}s otherwise,
    so with [sweep] either every input is typed and none is a float, or
    every input is boxed. *)
let create ?(sweep = false) ~cap (specs : Algebra.agg_spec array)
    (cols : Batch.col option array) : t =
  let funcs = Array.map (fun (s : Algebra.agg_spec) -> s.Algebra.func) specs in
  let inputs = Array.map2 (input_of ~floats:(not sweep)) funcs cols in
  let inputs =
    if sweep && Array.exists is_boxed inputs
    then Array.map (fun c -> Boxed c) cols
    else inputs
  in
  let t =
    {
      funcs;
      inputs;
      naggs = Array.length specs;
      groups = 0;
      cap = 0;
      cnt = [||];
      iv = [||];
      fv = [||];
      bv = [||];
    }
  in
  alloc t (max cap 1);
  t

let groups t = t.groups

(** Whether every input runs typed. *)
let typed t = not (Array.exists is_boxed t.inputs)

(** Add group [groups t], with empty slots. *)
let add_group t =
  if t.groups = t.cap then alloc t (2 * t.cap);
  let base = t.groups * t.naggs in
  for j = 0 to t.naggs - 1 do
    t.cnt.(base + j) <- 0;
    match t.inputs.(j) with Boxed _ -> t.bv.(base + j) <- Agg.empty | _ -> ()
  done;
  t.groups <- t.groups + 1

let null_at (m : bool array option) i =
  match m with Some m -> m.(i) | None -> false

(** Fold row [i] of the input columns into group [g]'s slots. *)
let step t g i =
  let base = g * t.naggs in
  for j = 0 to t.naggs - 1 do
    let s = base + j in
    match t.inputs.(j) with
    | Rows -> t.cnt.(s) <- t.cnt.(s) + 1
    | Nonnull c -> if not (Batch.is_null_at c i) then t.cnt.(s) <- t.cnt.(s) + 1
    | Ints (a, m) ->
        if not (null_at m i) then begin
          let v = a.(i) in
          (if t.cnt.(s) = 0 then t.iv.(s) <- v
           else
             let x = t.iv.(s) in
             match t.funcs.(j) with
             | Agg.Min _ -> if v < x then t.iv.(s) <- v
             | Agg.Max _ -> if v > x then t.iv.(s) <- v
             | _ -> t.iv.(s) <- x + v);
          t.cnt.(s) <- t.cnt.(s) + 1
        end
    | Floats (a, m) ->
        if not (null_at m i) then begin
          let v = a.(i) in
          (if t.cnt.(s) = 0 then t.fv.(s) <- v
           else
             let x = t.fv.(s) in
             match t.funcs.(j) with
             | Agg.Min _ -> if Float.compare x v > 0 then t.fv.(s) <- v
             | Agg.Max _ -> if Float.compare x v < 0 then t.fv.(s) <- v
             | _ -> t.fv.(s) <- x +. v);
          t.cnt.(s) <- t.cnt.(s) + 1
        end
    | Boxed c ->
        let v = match c with None -> Value.Int 1 | Some c -> Batch.value c i in
        t.bv.(s) <- Agg.step t.bv.(s) v
  done

(** Group [g]'s boxed accumulator of aggregate [j] (a boxed input). *)
let acc t g j = t.bv.((g * t.naggs) + j)

(** [shift ~sign t g run]: add ([sign = 1]) or take away ([-1]) group
    [g]'s counts and sums in [run]'s group 0 — split_agg's sweep
    entering and leaving a pre-aggregate.  Typed int state only; the
    running minima and maxima are the caller's ({!set_int}). *)
let shift ~sign t g run =
  let base = g * t.naggs in
  for j = 0 to t.naggs - 1 do
    let n = t.cnt.(base + j) in
    run.cnt.(j) <- run.cnt.(j) + (sign * n);
    match t.funcs.(j) with
    | (Agg.Sum _ | Agg.Avg _) when n > 0 ->
        run.iv.(j) <- run.iv.(j) + (sign * t.iv.(base + j))
    | _ -> ()
  done

(** Empty group 0 of [t], its int sums included. *)
let reset t =
  for j = 0 to t.naggs - 1 do
    t.cnt.(j) <- 0;
    match t.inputs.(j) with Ints _ -> t.iv.(j) <- 0 | _ -> ()
  done

(* group [g]'s count, and its running int value, of aggregate [j] *)
let count t g j = t.cnt.((g * t.naggs) + j)
let get_int t g j = t.iv.((g * t.naggs) + j)
let set_int t g j v = t.iv.((g * t.naggs) + j) <- v

(** Give the int slot arrays back to {!Scratch}; [t]'s slots must not
    be read afterwards. *)
let release t =
  Scratch.release t.cnt;
  Scratch.release t.iv;
  t.cnt <- [||];
  t.iv <- [||]

(* ---- output columns ---- *)

type kind = K_int | K_float | K_boxed

(** Aggregate values under construction, [len] rows per aggregate, in
    the representation its input gives them. *)
type out = {
  kinds : kind array;
  o_ints : int array array;
  o_floats : float array array;
  o_vals : Value.t array array;  (* boxed inputs *)
  o_nulls : bool array array;  (* [||] until a row is NULL *)
  len : int;
}

let out t len : out =
  let kinds =
    Array.map2
      (fun input func ->
        match (input, func) with
        | Boxed _, _ -> K_boxed
        | _, Agg.Avg _ | Floats _, _ -> K_float
        | _ -> K_int)
      t.inputs t.funcs
  in
  let per k make = Array.map (fun k' -> if k = k' then make () else [||]) kinds in
  {
    kinds;
    o_ints = per K_int (fun () -> Array.make len 0);
    o_floats = per K_float (fun () -> Array.make len 0.);
    o_vals = per K_boxed (fun () -> Array.make len Value.Null);
    o_nulls = Array.make t.naggs [||];
    len;
  }

let set_null (o : out) j k =
  if Array.length o.o_nulls.(j) = 0 then o.o_nulls.(j) <- Array.make o.len false;
  o.o_nulls.(j).(k) <- true

(** Set aggregate [j]'s value at output row [k] (a boxed input). *)
let set_value (o : out) j k v = o.o_vals.(j).(k) <- v

(** Write group [g]'s values, {!Agg.final} of its slots, at output row
    [k]. *)
let emit t g (o : out) k =
  let base = g * t.naggs in
  for j = 0 to t.naggs - 1 do
    let s = base + j in
    let n = t.cnt.(s) in
    match (t.inputs.(j), t.funcs.(j)) with
    | Boxed _, f -> o.o_vals.(j).(k) <- Agg.final f t.bv.(s)
    | _, (Agg.Count_star | Agg.Count _) -> o.o_ints.(j).(k) <- n
    | _, _ when n = 0 -> set_null o j k
    | Ints _, Agg.Avg _ ->
        o.o_floats.(j).(k) <- float_of_int t.iv.(s) /. float_of_int n
    | Floats _, Agg.Avg _ -> o.o_floats.(j).(k) <- t.fv.(s) /. float_of_int n
    | Floats _, _ -> o.o_floats.(j).(k) <- t.fv.(s)
    | _ -> o.o_ints.(j).(k) <- t.iv.(s)
  done

(** The first [n] cells of [a], copied only when [a] is longer. *)
let prefix_of (a : 'a array) (n : int) : 'a array =
  if Array.length a = n then a else Array.sub a 0 n

(** [c] as [Batch.col_of_values ty] would build it: kept when its
    unboxed data already has type [ty]. *)
let typed_col (ty : Value.ty) (n : int) (c : Batch.col) : Batch.col =
  match (ty, c.Batch.data) with
  | Value.TInt, Batch.Ints _ | Value.TFloat, Batch.Floats _ -> c
  | _ -> Batch.col_of_values ty n (Batch.value c)

(** The first [n] rows of each aggregate's values, as columns of type
    {!Agg.output_ty} over [schema], the input schema. *)
let cols t (o : out) ~(schema : Schema.t) (n : int) : Batch.col array =
  Array.mapi
    (fun j kind ->
      let ty = Agg.output_ty schema t.funcs.(j) in
      let data =
        match kind with
        | K_boxed -> None
        | K_float -> Some (Batch.Floats (prefix_of o.o_floats.(j) n))
        | K_int -> Some (Batch.Ints (prefix_of o.o_ints.(j) n))
      in
      match data with
      | None -> Batch.col_of_values ty n (Array.get o.o_vals.(j))
      | Some data ->
          let nulls =
            if Array.length o.o_nulls.(j) = 0 then None
            else Some (prefix_of o.o_nulls.(j) n)
          in
          typed_col ty n { Batch.data; nulls })
    o.kinds

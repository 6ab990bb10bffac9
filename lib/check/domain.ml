(** Abstract domains shared by the plan-level abstract interpreter
    ({!Absint}): integer intervals with unbounded ends and per-column
    facts (interval plus definite non-nullness).

    The interval lattice is the classic one: elements are [lo, hi] with
    optional (= infinite) bounds ordered by inclusion, [meet] intersects,
    [join] takes the convex hull.  Any interval with [lo > hi] is empty
    (bottom); {!Itv.bot} is the canonical representative. *)

module Itv = struct
  type t = {
    lo : int option;  (** inclusive lower bound; [None] = -oo *)
    hi : int option;  (** inclusive upper bound; [None] = +oo *)
  }

  let top = { lo = None; hi = None }
  let bot = { lo = Some 1; hi = Some 0 }
  let of_bounds lo hi = { lo = Some lo; hi = Some hi }
  let at_least lo = { lo = Some lo; hi = None }
  let at_most hi = { lo = None; hi = Some hi }
  let singleton k = of_bounds k k

  let is_bot i =
    match (i.lo, i.hi) with Some l, Some h -> l > h | _ -> false

  let is_top i = i.lo = None && i.hi = None

  (* bound arithmetic: in lower-bound position [None] is -oo, in
     upper-bound position it is +oo *)
  let max_lo a b =
    match (a, b) with
    | None, x | x, None -> x
    | Some a, Some b -> Some (max a b)

  let min_hi a b =
    match (a, b) with
    | None, x | x, None -> x
    | Some a, Some b -> Some (min a b)

  let min_lo a b =
    match (a, b) with
    | None, _ | _, None -> None
    | Some a, Some b -> Some (min a b)

  let max_hi a b =
    match (a, b) with
    | None, _ | _, None -> None
    | Some a, Some b -> Some (max a b)

  let meet a b = { lo = max_lo a.lo b.lo; hi = min_hi a.hi b.hi }

  (* convex hull; bottoms are identities *)
  let join a b =
    if is_bot a then b
    else if is_bot b then a
    else { lo = min_lo a.lo b.lo; hi = max_hi a.hi b.hi }

  let mem k i =
    (match i.lo with Some l -> l <= k | None -> true)
    && match i.hi with Some h -> k <= h | None -> true

  (* [subset a b]: every element of [a] is in [b] *)
  let subset a b =
    is_bot a
    || (match b.lo with
       | None -> true
       | Some bl -> ( match a.lo with Some al -> bl <= al | None -> false))
       && (match b.hi with
          | None -> true
          | Some bh -> ( match a.hi with Some ah -> ah <= bh | None -> false))

  let pp ppf i =
    if is_bot i then Format.pp_print_string ppf "empty"
    else
      let bound inf ppf = function
        | Some k -> Format.pp_print_int ppf k
        | None -> Format.pp_print_string ppf inf
      in
      Format.fprintf ppf "[%a,%a]" (bound "-inf") i.lo (bound "+inf") i.hi
end

type col = {
  itv : Itv.t;
      (** bounds on the column's {e non-null} integer values (vacuous for
          non-integer columns, which stay at {!Itv.top}) *)
  nonnull : bool;  (** the column provably never holds NULL *)
}
(** One column's abstract value.  [itv] = {!Itv.bot} together with
    [nonnull] proves the relation empty; with [nonnull = false] it only
    says every value is NULL. *)

let col_top = { itv = Itv.top; nonnull = false }

(** No possible value at all: the refutation certificate. *)
let col_impossible (c : col) = c.nonnull && Itv.is_bot c.itv

let col_join a b = { itv = Itv.join a.itv b.itv; nonnull = a.nonnull && b.nonnull }

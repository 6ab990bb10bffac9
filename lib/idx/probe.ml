(** Recognition of index-answerable predicates.

    A conjunction over an encoded period table (period columns stored
    last: [Abegin] at [arity - 2], [Aend] at [arity - 1]) is
    index-answerable when its conjuncts impose both an {e upper} bound on
    [Abegin] and a {e lower} bound on [Aend] — the stab/overlap shape.
    Any such pair of bounds is a {e necessary} condition for the whole
    predicate, so the index's candidate set is a superset of the rows the
    scan keeps, and re-applying the full predicate to the candidates
    reproduces the scan exactly.  The [AS OF t] timeslice of a base
    table ([Abegin <= t AND t < Aend]) is the canonical instance. *)

open Tkr_relation

type bounds = { b_hi : Interval.bound; e_lo : Interval.bound }

(* [a] tighter-than-or-equal [b] as an upper bound *)
let tighter_hi (a : Interval.bound) (b : Interval.bound) =
  a.Interval.v < b.Interval.v
  || (a.Interval.v = b.Interval.v && ((not a.Interval.incl) || b.Interval.incl))

(* [a] tighter-than-or-equal [b] as a lower bound *)
let tighter_lo (a : Interval.bound) (b : Interval.bound) =
  a.Interval.v > b.Interval.v
  || (a.Interval.v = b.Interval.v && ((not a.Interval.incl) || b.Interval.incl))

let pick tighter cur cand =
  match cur with
  | None -> Some cand
  | Some b -> if tighter cand b then Some cand else Some b

(** The begin-upper / end-lower bounds imposed by the conjuncts of [p]
    on the period columns of an [arity]-column encoded relation, or
    [None] unless both are present. *)
let bounds ~(arity : int) (p : Expr.t) : bounds option =
  let bcol = arity - 2 and ecol = arity - 1 in
  let b_hi = ref None and e_lo = ref None in
  let hi b = b_hi := pick tighter_hi !b_hi b
  and lo b = e_lo := pick tighter_lo !e_lo b in
  List.iter
    (fun conj ->
      match conj with
      | Expr.Cmp (op, Expr.Col c, Expr.Const (Value.Int k)) when c = bcol -> (
          (* Abegin OP k *)
          match op with
          | Expr.Le -> hi { Interval.v = k; incl = true }
          | Expr.Lt -> hi { Interval.v = k; incl = false }
          | Expr.Eq -> hi { Interval.v = k; incl = true }
          | Expr.Ge | Expr.Gt | Expr.Ne -> ())
      | Expr.Cmp (op, Expr.Const (Value.Int k), Expr.Col c) when c = bcol -> (
          (* k OP Abegin *)
          match op with
          | Expr.Ge -> hi { Interval.v = k; incl = true }
          | Expr.Gt -> hi { Interval.v = k; incl = false }
          | Expr.Eq -> hi { Interval.v = k; incl = true }
          | Expr.Le | Expr.Lt | Expr.Ne -> ())
      | Expr.Cmp (op, Expr.Col c, Expr.Const (Value.Int k)) when c = ecol -> (
          (* Aend OP k *)
          match op with
          | Expr.Ge -> lo { Interval.v = k; incl = true }
          | Expr.Gt -> lo { Interval.v = k; incl = false }
          | Expr.Eq -> lo { Interval.v = k; incl = true }
          | Expr.Le | Expr.Lt | Expr.Ne -> ())
      | Expr.Cmp (op, Expr.Const (Value.Int k), Expr.Col c) when c = ecol -> (
          (* k OP Aend *)
          match op with
          | Expr.Le -> lo { Interval.v = k; incl = true }
          | Expr.Lt -> lo { Interval.v = k; incl = false }
          | Expr.Eq -> lo { Interval.v = k; incl = true }
          | Expr.Ge | Expr.Gt | Expr.Ne -> ())
      | _ -> ())
    (Expr.conjuncts p);
  match (!b_hi, !e_lo) with
  | Some b_hi, Some e_lo -> Some { b_hi; e_lo }
  | _ -> None

(** Recognition of index-answerable predicates.

    A conjunction over an encoded period table (period columns stored
    last: [Abegin] at [arity - 2], [Aend] at [arity - 1]) is
    index-answerable when its conjuncts impose both an {e upper} bound on
    [Abegin] and a {e lower} bound on [Aend] — the stab/overlap shape.
    Any such pair of bounds is a {e necessary} condition for the whole
    predicate, so the index's candidate set is a superset of the rows the
    scan keeps, and re-applying the full predicate to the candidates
    reproduces the scan exactly.  The [AS OF t] timeslice of a base
    table ([Abegin <= t AND t < Aend]) is the canonical instance.

    When every conjunct is one of the four bound forms ([Abegin < k],
    [Abegin <= k], [Aend > k], [Aend >= k], either side), the bounds are
    also {e sufficient}: the index's period columns are null-free ints,
    so each conjunct is two-valued, and a conjunction of bounds on one
    side is its tightest.  The candidates are then exactly the rows the
    scan keeps ({!bounds}' [exact]), and re-applying the predicate can
    drop nothing. *)

open Tkr_relation

type bounds = {
  b_hi : Interval.bound;
  e_lo : Interval.bound;
  exact : bool;
      (** every conjunct is a begin-upper or end-lower bound: the
          candidates are exactly the rows [p] keeps *)
}

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
  let b_hi = ref None and e_lo = ref None and exact = ref true in
  let hi b = b_hi := pick tighter_hi !b_hi b
  and lo b = e_lo := pick tighter_lo !e_lo b in
  (* an equality bounds one side but is not itself a bound form *)
  let eq set k =
    set { Interval.v = k; incl = true };
    exact := false
  in
  List.iter
    (fun conj ->
      match conj with
      | Expr.Cmp (op, Expr.Col c, Expr.Const (Value.Int k)) when c = bcol -> (
          (* Abegin OP k *)
          match op with
          | Expr.Le -> hi { Interval.v = k; incl = true }
          | Expr.Lt -> hi { Interval.v = k; incl = false }
          | Expr.Eq -> eq hi k
          | Expr.Ge | Expr.Gt | Expr.Ne -> exact := false)
      | Expr.Cmp (op, Expr.Const (Value.Int k), Expr.Col c) when c = bcol -> (
          (* k OP Abegin *)
          match op with
          | Expr.Ge -> hi { Interval.v = k; incl = true }
          | Expr.Gt -> hi { Interval.v = k; incl = false }
          | Expr.Eq -> eq hi k
          | Expr.Le | Expr.Lt | Expr.Ne -> exact := false)
      | Expr.Cmp (op, Expr.Col c, Expr.Const (Value.Int k)) when c = ecol -> (
          (* Aend OP k *)
          match op with
          | Expr.Ge -> lo { Interval.v = k; incl = true }
          | Expr.Gt -> lo { Interval.v = k; incl = false }
          | Expr.Eq -> eq lo k
          | Expr.Le | Expr.Lt | Expr.Ne -> exact := false)
      | Expr.Cmp (op, Expr.Const (Value.Int k), Expr.Col c) when c = ecol -> (
          (* k OP Aend *)
          match op with
          | Expr.Le -> lo { Interval.v = k; incl = true }
          | Expr.Lt -> lo { Interval.v = k; incl = false }
          | Expr.Eq -> eq lo k
          | Expr.Ge | Expr.Gt | Expr.Ne -> exact := false)
      | _ -> exact := false)
    (Expr.conjuncts p);
  match (!b_hi, !e_lo) with
  | Some b_hi, Some e_lo -> Some { b_hi; e_lo; exact = !exact }
  | _ -> None

(** Abstract interpretation over plans: interval and multiplicity-shape
    inference, the TKR4xx diagnostic family, and analysis-driven pruning.

    A bottom-up interpreter over {!Tkr_relation.Algebra.t} with two
    cooperating abstract domains ({!Domain}): per-column integer
    intervals with definite non-nullness (seeding the period columns of
    encoded relations from the database time bounds and refining through
    NULL-aware predicate analysis), and multiplicity shape
    (duplicate-freeness, coalescedness — the paper's K-coalesce,
    Def. 8.2).

    The analysis is purely structural: it never reads table contents, so
    its proofs remain valid for prepared plans across DML.  {!prune} is
    byte-identity-preserving on well-typed plans: the pruned plan
    produces the same rows in the same order as the original. *)

open Tkr_relation

type env = {
  lookup : Typecheck.lookup;  (** tolerant catalog *)
  is_period : string -> bool;
      (** base relations whose last two columns are the period encoding *)
  time_bounds : (int * int) option;
      (** [(tmin, tmax)]: every stored period endpoint lies within *)
  temporal : bool;
      (** analyzing a rewritten (period-encoded) plan: suppresses
          subsumption warnings (TKR403) on rewriter-generated predicates *)
}

val env :
  ?is_period:(string -> bool) ->
  ?time_bounds:int * int ->
  ?temporal:bool ->
  Typecheck.lookup ->
  env
(** Defaults: no period relations, no time bounds, non-temporal. *)

type fact = {
  schema : Schema.t option;  (** [None] when the subplan does not type *)
  empty : bool;  (** provably produces no rows *)
  cols : Domain.col array;
      (** per-column facts, positionally; [[||]] when unknown *)
  dup_free : bool;  (** provably duplicate-free *)
  coalesced : bool;
      (** [Coalesce] is provably the byte-identity on this output *)
  period : bool;  (** the last two columns are a period encoding *)
}

val analyze : env -> Algebra.t -> fact * Diagnostic.t list
(** Root fact plus all TKR4xx diagnostics (bottom-up order; TKR402 is
    appended when the whole plan is provably empty). *)

val diagnose : env -> Algebra.t -> Diagnostic.t list
(** Just the diagnostics of {!analyze}. *)

val prune : env -> Algebra.t -> Algebra.t
(** Byte-identity-preserving simplification driven by the analysis:
    provably-empty subplans collapse to empty constant relations,
    provably-idempotent [Distinct]/[Coalesce] are dropped, one-sided
    unions and differences shed their empty operand. *)

val check : env -> Algebra.t -> Diagnostic.t list * Algebra.t
(** [({!diagnose} env q, {!prune} env q)], from one walk. *)

val render : env -> Algebra.t -> string
(** Indented per-operator rendering of the plan with the inferred facts
    ([time=[lo,hi)] windows, [empty], [dup-free], [coalesced]) for
    [EXPLAIN]. *)

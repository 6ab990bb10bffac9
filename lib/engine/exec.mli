(** The plan interpreter: evaluates (rewritten) algebra over physical
    multiset tables.

    Joins extract equi-keys from conjunctive predicates and run as hash
    joins with the remaining conjuncts (e.g. interval overlap) as a
    residual filter; predicates without equi-keys fall back to a nested
    loop. *)

open Tkr_relation

val select : Expr.t -> Table.t -> Table.t
val project : Algebra.proj list -> Table.t -> Table.t

val union : Table.t -> Table.t -> Table.t
(** UNION ALL. @raise Invalid_argument on incompatible schemas. *)

val except_all : Table.t -> Table.t -> Table.t
(** Counting EXCEPT ALL: each right row cancels one matching left row. *)

val nested_loop_join : Expr.t -> Table.t -> Table.t -> Table.t
val hash_join :
  ?sp:Tkr_obs.Trace.span ->
  (int * int) list ->
  Expr.t option ->
  Table.t ->
  Table.t ->
  Table.t

val join : ?sp:Tkr_obs.Trace.span -> Expr.t -> Table.t -> Table.t -> Table.t
(** Strategy selection: hash join when equi-keys exist, else nested loop.
    The span (if any) records the chosen strategy and, for hash joins, the
    candidate count and residual-filter hit rate. *)

val aggregate :
  Algebra.proj list -> Algebra.agg_spec list -> Table.t -> Table.t
(** Hash aggregation with SQL semantics (one row over empty ungrouped
    input). *)

val distinct : Table.t -> Table.t

val op_label : Algebra.t -> string
(** Trace span label of the root operator (shared with
    {!Tkr_vec.Vexec} so both engines produce comparable traces). *)

val eval : ?obs:Tkr_obs.Trace.t -> Database.t -> Algebra.t -> Table.t
(** Evaluate a full plan.  [Split] with physically equal children
    evaluates the shared subplan once.  With an enabled [obs] collector,
    every operator reports a span carrying rows in/out and operator
    internals (default: the disabled collector — no overhead).  Every
    table is scanned: the interval-index access paths live in the
    shipped engine ({!Tkr_vec.Vexec}), which this interpreter specifies. *)

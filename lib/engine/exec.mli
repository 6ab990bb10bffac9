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
  (int * int) list -> Expr.t option -> Table.t -> Table.t -> Table.t

val join : Expr.t -> Table.t -> Table.t -> Table.t
(** Strategy selection: hash join when equi-keys exist, else nested loop. *)

val aggregate :
  Algebra.proj list -> Algebra.agg_spec list -> Table.t -> Table.t
(** Hash aggregation with SQL semantics (one row over empty ungrouped
    input). *)

val distinct : Table.t -> Table.t

val eval : Database.t -> Algebra.t -> Table.t
(** Evaluate a full plan.  [Split] with physically equal children
    evaluates the shared subplan once.  Every table is scanned and
    nothing is traced: the interval-index access paths and the operator
    spans live in the shipped engine ({!Tkr_vec.Vexec}), which this
    interpreter specifies. *)

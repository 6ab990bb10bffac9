(** Analyzer driver: the passes combined per plan stage. *)

open Tkr_relation

val logical :
  ?absint:Absint.env ->
  lookup:Typecheck.lookup ->
  Algebra.t ->
  Diagnostic.t list * Algebra.t
(** Type checking plus logical plan invariants (no physical operators)
    plus abstract interpretation ({!Absint}, the TKR4xx family), and the
    plan {!Absint.prune} makes, from the same walk.  [absint] defaults
    to a bare non-temporal environment over [lookup]. *)

val physical :
  ?absint:Absint.env ->
  lookup:Typecheck.lookup ->
  Algebra.t ->
  Diagnostic.t list * Algebra.t
(** Type checking plus period-encoding plan invariants plus abstract
    interpretation, and the pruned plan, from one walk.  [lookup] must
    give the encoded base-table schemas (data plus [__b]/[__e]);
    [absint] defaults to a temporal environment over [lookup] — pass a
    seeded one for period/time-bounds facts. *)

val verdict :
  ?werror:bool ->
  Diagnostic.t list ->
  (Diagnostic.t list, Diagnostic.t list) result
(** [Error] when the list contains an error (with [~werror:true], any
    warning counts too). *)

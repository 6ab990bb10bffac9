(** Analyzer driver: combine the passes for the two plan stages.

    The middleware runs {!logical} on the analyzer's output (and again on
    the optimizer's output — the optimizer's semantics-preservation claim
    becomes a machine-checked postcondition) and {!physical} on the REWR
    output, all under the obs-timed [check] phase. *)

open Tkr_relation

(** Type-check plus logical plan invariants plus abstract
    interpretation, and the plan the same abstract-interpretation walk
    prunes.  [absint] defaults to a bare non-temporal environment
    derived from [lookup]. *)
let logical ?absint ~(lookup : Typecheck.lookup) (q : Algebra.t) :
    Diagnostic.t list * Algebra.t =
  let env =
    match absint with Some e -> e | None -> Absint.env lookup
  in
  let ds, pruned = Absint.check env q in
  (Typecheck.algebra ~lookup q @ Plan_check.logical q @ ds, pruned)

(** Type-check plus physical (period-encoding) plan invariants plus
    abstract interpretation, and the pruned plan.  [lookup] must give
    the encoded base-table schemas; [absint] defaults to a temporal
    environment derived from [lookup] (no period seeding — pass a real
    environment for bounds). *)
let physical ?absint ~(lookup : Typecheck.lookup) (q : Algebra.t) :
    Diagnostic.t list * Algebra.t =
  let env =
    match absint with Some e -> e | None -> Absint.env ~temporal:true lookup
  in
  let ds, pruned = Absint.check env q in
  (Typecheck.algebra ~lookup q @ Plan_check.physical ~lookup q @ ds, pruned)

(** [verdict ~werror ds] is [Error ds] when [ds] contains an error (or,
    with [~werror:true], any warning), [Ok ds] otherwise. *)
let verdict ?(werror = false) (ds : Diagnostic.t list) :
    (Diagnostic.t list, Diagnostic.t list) result =
  if Diagnostic.count_errors ~werror ds > 0 then Error ds else Ok ds

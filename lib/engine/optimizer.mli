(** Cost-based logical optimization: greedy join-order selection over
    flattened inner-join trees, driven by a base-table cardinality oracle.

    Runs on the logical query before the snapshot rewriting — one of the
    advantages the paper claims for the middleware architecture over
    alignment-based kernels, which constrain join reordering
    (Section 10.4).  Semantics-preserving: the output multiset is
    identical for every database instance. *)

open Tkr_relation

type stats = { card : string -> int }

val estimate : stats -> Algebra.t -> float
(** Crude, monotone cardinality estimate used for greedy ordering. *)

val optimize :
  ?prune:(Algebra.t -> Algebra.t) ->
  stats:stats ->
  lookup:(string -> Schema.t) ->
  Algebra.t ->
  Algebra.t
(** Reorder join trees; restores the original column order and names with
    a final projection when a reorder happens.  [prune] is applied to the
    result — the middleware supplies the analysis-driven pruner from
    [Tkr_check.Absint] (the engine does not depend on the checker); it
    must preserve the produced rows and their order exactly. *)

val merge_selects : Algebra.t -> Algebra.t
(** Collapse stacked selections into one conjunctive selection
    ([Select (p1, Select (p2, q))] → [Select (And (p2, p1), q)]), so
    stacked filters over a period table — one bounding [Abegin], one
    bounding [Aend] — fuse into a single index-answerable predicate.
    Filtered rows and their order are identical.  Applied to final plans
    unconditionally — the plan shape never depends on the index flag. *)

val access :
  use_index:bool ->
  is_period:(string -> bool) ->
  lookup:(string -> Schema.t) ->
  Algebra.t ->
  (string * string) list
(** The [(table, "index" | "scan")] access-path decisions {!Exec.eval}
    will make for stored period tables read through selections or
    no-equi-key joins, in plan order — rendered by EXPLAIN so the chosen
    path is visible without running the query. *)

(** Cost-based logical optimization: greedy join-order selection over
    flattened inner-join trees, driven by base-table row counts and the
    column statistics of the stored tables ({!Table.column_stats}).

    Runs on the logical query before the snapshot rewriting — one of the
    advantages the paper claims for the middleware architecture over
    alignment-based kernels, which constrain join reordering
    (Section 10.4).  Semantics-preserving: the output multiset is
    identical for every database instance. *)

open Tkr_relation

type stats = { card : string -> int }
(** Row counts of the base relations. *)

type mode =
  | Plain  (** a plain query or an AS OF timeslice *)
  | Snapshot of { domain : int }
      (** a [SEQ VT] plan over a time domain of length [domain]: REWR
          adds an overlap conjunct to every join and splits every
          aggregation at its group's endpoints *)

val estimate :
  ?table:(string -> Table.t) ->
  ?mode:mode ->
  lookup:(string -> Schema.t) ->
  stats ->
  Algebra.t ->
  float
(** The estimated output rows of a plan (default mode [Plain]).  An
    equi-join of [L] and [R] has |L|·|R| / max(ndv) rows per key; a
    column compared with a constant keeps 1/ndv of the rows, or the
    fraction of its [min]..[max] range on the kept side.  In [Snapshot]
    mode a join is further scaled by its overlap selectivity
    min(1, (l̄_L + l̄_R) / domain) over the inputs' mean period lengths,
    and a grouped aggregation keeps its input's size, where in [Plain]
    mode it has one row per group (the product of the group columns'
    distinct counts, at most its input's size).  Column statistics and
    period lengths come from [table] and are read only where a
    predicate, a grouping or an overlap needs them; without [table] a
    column is assumed to be a key and periods to span the domain. *)

val optimize :
  ?prune:(Algebra.t -> Algebra.t) ->
  ?table:(string -> Table.t) ->
  ?mode:mode ->
  stats:stats ->
  lookup:(string -> Schema.t) ->
  Algebra.t ->
  Algebra.t
(** Reorder join trees: start from the smallest input, then add the input
    whose join with the prefix is estimated smallest ({!estimate}); a
    join of two inputs puts the smaller first and reads no statistics.
    Restores the original column order and names with a final
    projection when a reorder happens.  [prune] is applied to the
    result — the middleware supplies the analysis-driven pruner from
    [Tkr_check.Absint] (the engine does not depend on the checker); it
    must preserve the produced rows and their order exactly. *)

val join_estimates :
  ?table:(string -> Table.t) ->
  ?mode:mode ->
  lookup:(string -> Schema.t) ->
  stats ->
  Algebra.t ->
  (string * float) list
(** Every join of a plan in pre-order (a join before its inputs, left
    before right), as its inputs' short names and its estimated rows —
    EXPLAIN's view of the chosen join order. *)

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
(** The [(table, "index" | "scan")] access-path decisions the vectorized
    engine will make for stored period tables read through selections, in
    plan order — rendered by EXPLAIN so the chosen path is visible
    without running the query.  [use_index] is whether the plan runs on
    an engine with index access paths at all. *)

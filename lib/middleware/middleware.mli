(** The database middleware of Section 9: snapshot semantics as a SQL
    language feature.

    - [SEQ VT (q)] evaluates [q] under snapshot semantics over the period
      tables it references; the result is a period table with trailing
      [vt_begin]/[vt_end] columns and the canonical (coalesced) encoding.
    - [SEQ VT AS OF t (q)] returns the snapshot of [q] at time [t]
      (non-temporal result): [q] is planned as a plain query over the
      timeslice τ_t of each base table (its rows alive at [t], period
      columns dropped) — no REWR, split or coalesce, because τ_t is a
      semiring homomorphism (Thm 6.3/7.2).  A point outside the stored
      time bounds yields no rows (warning TKR408).  Without ORDER BY,
      rows come in plain-plan order, as for plain queries.
    - Queries without [SEQ VT] run as ordinary SQL.
    - DDL/DML: [CREATE TABLE ... PERIOD (b, e)], [INSERT], [DROP TABLE],
      [UPDATE]/[DELETE] including SQL:2011 [FOR PORTION OF].

    A middleware is safe for concurrent callers (threads or domains):
    queries prepare and execute under the shared read side of an internal
    readers-writer lock, DDL/DML take the exclusive write side, cumulative stats are mutex-guarded and the metrics
    registry is itself thread-safe.  Execution is serial within a
    statement; statements run concurrently. *)

open Tkr_relation
module Table = Tkr_engine.Table
module Database = Tkr_engine.Database
module Rewriter = Tkr_sqlenc.Rewriter

module Diagnostic = Tkr_check.Diagnostic

exception Error of Diagnostic.t
(** Semantic errors, as coded diagnostics. *)

exception Rejected of Diagnostic.t list
(** The static [check] phase found errors (or, in strict mode, warnings);
    the statement was not executed. *)

type t

type engine = Row | Vec
(** Columnar batch-at-a-time execution ({!Vec}, {!Tkr_vec.Vexec}, the
    default) or row-at-a-time interpreted execution ({!Row},
    {!Tkr_engine.Exec}, the differential-testing oracle).  The vectorized
    engine reproduces the row engine's output byte-for-byte. *)

val create :
  ?options:Rewriter.options ->
  ?optimize:bool ->
  ?prune:bool ->
  ?index:bool ->
  ?engine:engine ->
  ?strict:bool ->
  ?db:Database.t ->
  unit ->
  t
(** A middleware over a (possibly pre-populated) engine database.  Default
    options: {!Rewriter.optimized}.  [prune] (default true) applies the
    {!Tkr_check.Absint} analysis-driven plan pruning (provably-empty
    subplans, provably-idempotent Distinct/Coalesce) — byte-identity
    preserving, so results are unchanged.  [index] (default true) lets
    the vec engine answer index-answerable selections over stored period
    tables through {!Tkr_idx} instead of scanning (the row oracle always
    scans); also byte-identity preserving, visible only as
    [access: ...=index|scan] in EXPLAIN.  [engine] defaults to {!Vec}.
    [strict] (--Werror, default false) makes the check phase reject
    statements on warnings too.  Settings are fixed for the middleware's
    lifetime; a different setting is a second middleware, possibly over
    the same database. *)

val database : t -> Database.t
val prune : t -> bool
val index_enabled : t -> bool
val engine : t -> engine
val strict : t -> bool
val options : t -> Rewriter.options

val parallelism : t -> int
(** Always 1: every statement executes serially.  Kept only because the
    perfbench report records it as its [jobs] field. *)

val read_locked : t -> (unit -> 'a) -> 'a
(** Run [f] holding the shared read side of the middleware's catalog
    lock: no DDL/DML executes inside [f], so table versions read there
    are consistent with query results computed there.  Reentrant — [f]
    may call any query-side middleware function.  The query server wraps
    (version read, execute, cache fill) in this bracket. *)

val write_locked : t -> (unit -> 'a) -> 'a
(** Run [f] holding the exclusive write side (no queries in flight).
    [f] must not call query-side middleware functions.  Every
    [write_locked] section bumps {!epoch}. *)

val epoch : t -> int
(** Catalog generation: changes whenever a {!write_locked}
    section ran (DDL, DML) or the underlying
    {!Tkr_engine.Database.t} was mutated directly.  A {!prepared}
    statement bakes the catalog state of prepare time (time bounds,
    schema arities, rewrite options), so a plan cached outside the
    middleware is valid only while [epoch] still equals its value at
    prepare time; compare under {!read_locked} to exclude concurrent
    mutations.  Monotone non-decreasing. *)

val set_epoch_hook : t -> (int -> unit) option -> unit
(** Observer notified with the new {!epoch} after every completed
    {!write_locked} section (DDL, DML), while the write lock is
    still held — keep it cheap and non-reentrant.  [None] removes it.
    The query server installs its epoch-bump telemetry here. *)

(** Cumulative phase timings of one prepared statement (or, for
    {!totals}, of a whole middleware): the preparation pipeline
    (parse → analyze → rewrite → optimize) is timed once per statement,
    [execute_ns] accumulates over every {!run_prepared}. *)
type phase_stats = {
  mutable parse_ns : int64;
  mutable analyze_ns : int64;
  mutable check_ns : int64;  (** static analysis (Tkr_check), all stages *)
  mutable rewrite_ns : int64;
  mutable optimize_ns : int64;
  mutable runs : int;
  mutable execute_ns : int64;
  mutable last_rows : int;
}

val pp_phase_stats : Format.formatter -> phase_stats -> unit
val phase_stats_json : phase_stats -> Tkr_obs.Json.t

type prepared = {
  plan : Algebra.t;
  exec : Tkr_obs.Trace.t -> Database.t -> Table.t;
      (** run against a trace collector ({!Tkr_obs.Trace.disabled} for no
          instrumentation) *)
  out_schema : Schema.t;
  snapshot : bool;
  order_by : (int * bool) list;
  limit : int option;
  stats : phase_stats;
  diags : Diagnostic.t list;
      (** diagnostics of the static [check] phase (warnings only: a
          statement with errors raises {!Rejected} instead) *)
  analysis : string;
      (** {!Tkr_check.Absint} rendering of the final plan with the
          inferred per-operator facts (time windows, emptiness,
          duplicate-freeness), shown by [EXPLAIN] *)
  access : (string * string) list;
      (** the planner's access-path decision per stored period table read
          through a selection — [(table, "index" | "scan")] in plan order,
          shown by [EXPLAIN]; "index" only on the vec engine with indexes
          on *)
  tables : string list;
      (** base tables the final plan reads, sorted and deduplicated —
          with {!Tkr_engine.Database.version} these form the dependency
          set of a snapshot-aware result cache entry *)
}
(** A parsed, analyzed, statically checked and (for [SEQ VT] queries
    other than [AS OF]) rewritten statement, ready for repeated
    execution. *)

val prepare : t -> string -> prepared
(** @raise Rejected when the static check phase reports errors (or
    warnings under [strict]). *)

val run_prepared : ?obs:Tkr_obs.Trace.t -> t -> prepared -> Table.t
(** Execute a prepared statement; [obs] (default {!Tkr_obs.Trace.disabled})
    collects a per-operator trace of the run. *)

val prepared_stats : prepared -> phase_stats

val totals : t -> phase_stats
(** Phase timings accumulated over every statement this middleware
    prepared or ran. *)

val totals_report : t -> string
val totals_json : t -> Tkr_obs.Json.t

val metrics : t -> Tkr_obs.Metrics.t
(** The middleware's metrics registry: [statements_run] counter,
    [execute_us] latency histogram and [rows_out] cardinality histogram,
    updated by every {!run_prepared}.  Export it with
    {!Tkr_obs.Openmetrics.of_metrics}. *)

val snapshot_algebra : t -> string -> Algebra.t * Schema.t
(** The logical algebra inside a [SEQ VT] statement and its data schema —
    the common input of the rewriter and the native baseline evaluators. *)

val check : t -> string -> Diagnostic.t list
(** [CHECK <query>] as a function: run the whole static analysis (type
    checking, plan invariants, lint) without executing.  Never raises —
    lexical, syntax and semantic errors come back as diagnostics. *)

val check_statement : t -> Tkr_sql.Ast.statement -> Diagnostic.t list

val lint_statement :
  t -> Tkr_check.Lint.profile -> Tkr_sql.Ast.statement -> Diagnostic.t list
(** Lint one statement's logical plan under an explicit capability
    profile (the paper's Table 1 evaluation styles); [[]] for DDL/DML.
    @raise Tkr_sql.Analyzer.Error when the statement does not analyze. *)

type result = Rows of Table.t | Done of string

val execute : t -> string -> result
(** Execute one statement (query, DDL or DML).
    @raise Error on semantic errors. *)

val execute_statement : t -> Tkr_sql.Ast.statement -> result
val execute_script : t -> string -> result list

val query : t -> string -> Table.t
(** Like {!execute} but requires a query. *)

val explain : t -> string -> string
(** EXPLAIN: render the final (optimized, rewritten) plan of a query. *)

val explain_analyze : t -> string -> string
(** EXPLAIN ANALYZE: prepare, execute under a fresh trace collector, and
    render the plan plus the executed operator tree annotated with rows
    in/out, operator internals (join strategy, coalesce groups/segments,
    split fan-out, ...), elapsed time and per-span GC/allocation deltas,
    followed by phase timings and the middleware's execute-latency
    quantiles (p50/p95/p99).
    Equivalent to executing the [EXPLAIN ANALYZE (stmt)] statement. *)

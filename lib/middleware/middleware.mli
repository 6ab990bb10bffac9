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

    A middleware is safe for concurrent callers (threads or domains).
    Its {!Tkr_engine.Database.t} is a handle on an immutable catalog
    value.  Each query-side entry point ({!prepare}, {!run_prepared},
    {!snapshot_algebra}, {!check}, {!lint_statement}, and the query,
    EXPLAIN and CHECK statements of {!execute}) pins the current value
    once and works against it alone, so it never waits for a write and
    never sees one half done.  DDL/DML statements serialize on the
    catalog's writer mutex: each reads what it needs, builds the
    successor value and publishes it, and never waits for a reader.  A
    statement sees the last write published before it pinned.  The
    cumulative numbers live in the thread-safe metrics registry.
    Execution is serial within a statement; statements run
    concurrently. *)

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
(** The middleware's catalog handle: live on a middleware from
    {!create}, pinned on one from {!pin}. *)

val prune : t -> bool
val index_enabled : t -> bool
val engine : t -> engine
val strict : t -> bool
val options : t -> Rewriter.options

val parallelism : t -> int
(** Always 1: every statement executes serially.  Kept only because the
    perfbench report records it as its [jobs] field. *)

val pin : t -> t
(** The same middleware over the catalog value current now
    ({!Tkr_engine.Database.pin}): everything done through it — prepare,
    execute, {!epoch}, versions read through {!database} — sees that one
    value.  The query server pins once per request, so the table
    versions it reads are those its result was computed from.  A DDL/DML
    statement through a pinned middleware raises [Invalid_argument] and
    changes nothing.  Pinning a pinned middleware returns it.  Do not
    keep a pinned middleware past its statement: it holds that value's
    tables alive. *)

val epoch : t -> int
(** Catalog generation, {!Tkr_engine.Database.generation}: changes with
    every table version bump and every time-bound change, whether the
    mutation came through DDL/DML or directly through the
    {!Tkr_engine.Database.t}; a rejected statement leaves it alone.  A
    {!prepared}
    statement bakes the catalog state of prepare time (time bounds,
    schema arities, rewrite options), so a plan cached outside the
    middleware is valid only for catalog values whose [epoch] equals
    its value at prepare time: read it on the {!pin}ned middleware the
    plan will execute on.  Monotone non-decreasing on a live
    middleware; fixed on a pinned one. *)

val set_epoch_hook : t -> (int -> unit) option -> unit
(** Observer notified with the new {!epoch} after every DDL/DML
    statement that succeeds, once its successor value is published and
    while it still holds the catalog's writer mutex, so the hook sees
    epochs in order — keep it cheap, and do not write to the catalog
    from it.  [None] removes it.  The query server installs its
    epoch-bump telemetry here. *)

(** The preparation phases of one statement (parse → analyze → check →
    rewrite → optimize), each timed once when it is prepared.  The
    middleware's cumulative totals are registry counters instead (see
    {!metrics}). *)
type phase_stats = {
  mutable parse_ns : int64 option;
      (** [None] when the statement was parsed as part of a script, whose
          parse time is not split per statement *)
  mutable analyze_ns : int64;
  mutable check_ns : int64;  (** static analysis (Tkr_check), all stages *)
  mutable rewrite_ns : int64;
  mutable optimize_ns : int64;
}

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
  joins : (string * float) list;
      (** the optimizer's estimate of every join of a [SEQ VT] plan, in
          pre-order: the joined inputs' short names and the estimated
          rows, shown by [EXPLAIN].  Empty unless the statement was
          prepared for [EXPLAIN], since estimating may read table
          statistics ({!Tkr_engine.Table.column_stats}) *)
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

val totals_report : t -> string
(** One line of phase timings accumulated over every statement this
    middleware parsed, prepared or ran ([run --stats]), read from
    {!metrics}. *)

val metrics : t -> Tkr_obs.Metrics.t
(** The middleware's metrics registry: the cumulative preparation-phase
    counters [prepare_{parse,analyze,check,rewrite,optimize}_ns], the
    [execute_us] latency histogram (its count is the number of
    statements run) and the [rows_out] cardinality histogram, the last
    two updated by every {!run_prepared}.  Export it with
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

val parse_statement : t -> string -> int64 * Tkr_sql.Ast.statement
(** Parse one statement, adding its parse time (returned, in ns) to the
    [prepare_parse_ns] counter.
    @raise Tkr_sql.Parser.Error or [Tkr_sql.Lexer.Error] on a syntax error. *)

val execute_statement :
  parse_ns:int64 option -> t -> Tkr_sql.Ast.statement -> result
(** [parse_ns] is the statement's own parse time, which its EXPLAIN
    ANALYZE phase line reports; [None] when the statement was parsed as
    part of a script, whose parse time is not split per statement. *)

val parse_script : t -> string -> (int64 option * Tkr_sql.Ast.statement) list
(** Parse a ;-separated script, adding its parse time to the
    [prepare_parse_ns] counter.  Each statement comes with its own parse
    time when it is the whole script, [None] otherwise.
    @raise Tkr_sql.Parser.Error or [Tkr_sql.Lexer.Error] on a syntax error. *)

val execute_script : t -> string -> result list
(** {!parse_script}, then {!execute_statement} on each statement. *)

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

(** The Tkr_serve TCP query server.

    One accept loop and one thread per connection.  Each connection is a
    {!Session}: each request is parsed once, and a query's plan comes
    from its statement shape (texts that differ only in the AS OF point
    share one), analyzed once per schema epoch and bound per point, so
    in-bounds DML costs a re-optimization and DDL a re-prepare.  Queries
    execute on the shared, thread-safe {!Tkr_middleware.Middleware}.

    A connection's thread runs its own requests: it reads a frame, takes
    one of [workers] execution slots from the {!Admission} gate, executes
    the request, gives the slot back, and only then writes the reply and
    feeds the observers.  So a session's requests execute one at a time,
    in arrival order, and replies leave in request order: a client that
    pipelines [INSERT ...] then [SELECT ...] on one connection observes
    program order.  Pipelined frames wait in the socket until the
    request before them has finished.  Concurrency comes from having
    many sessions; at most [workers] requests execute at once.  A client
    that stops reading blocks only its own connection's thread, never a
    slot.

    Query results flow through the snapshot-aware {!Cache}: an entry is
    keyed on the normalized final plan and guarded by the
    [(table, version)] pairs it reads, all observed on the one catalog
    value the request pinned ({!Tkr_middleware.Middleware.pin}), so a
    hit replays bytes that are provably equal to a fresh evaluation.  A
    DDL/DML request never waits for a running query: it publishes a new
    catalog value, which later requests see.

    Backpressure and shutdown are typed wire errors: [SERVER_BUSY] when
    [queue_depth] sessions already wait for a slot, [DEADLINE_EXCEEDED]
    for requests that waited past their budget (checked when the slot is
    granted), [SERVER_SHUTDOWN] once draining, and [SESSION_LIMIT] for
    connections beyond [max_sessions].  {!stop} drains gracefully:
    requests holding or awaiting a slot finish, then threads join.

    {2 Observability}

    Every finished request (ok, bypass statement, typed error, queued
    deadline or refusal at admission) is described by one
    {!Tkr_rec.Record.entry}, built once when its reply is ready.  The
    response's [elapsed_us], the serve counters and [serve_latency_us],
    the resource ledger and the server's one {!Tkr_rec.Record.t} stream
    all read from that one value.  The stream also carries what no entry says: connection
    open/close, request start, connections refused at the session limit
    and the drain.

    The stream has two views, each off unless asked for.  The log view
    ([serve --log]) writes every entry as a [request_finish] line and
    every lifecycle event, rate-limited.  While it is on, a request
    without a client [trace_id] gets a server-generated one, echoed on
    the response and on its log lines.  The recording view ([serve
    --record]) appends each entry as one versioned JSONL line:
    canonical statement, session, arrival order, the [(table, version)]
    vector and catalog epoch observed at execution, cache disposition,
    queue/exec split, GC word deltas, rows in/out, and an MD5 digest of
    the exact response payload bytes.  The dependency vector is read on
    the same pinned catalog value the cache uses, so a recording pins
    exactly the state a deterministic replay must reproduce.  A slow
    query is an entry whose [total_us] passes a threshold, a cache
    hit or miss its [disp], an invalidation a changed [deps] on the same
    [fp], a catalog write its new [epoch].

    With both views off (the default) each request pays one
    physical-equality check per view, and with no client trace id the
    responses are byte-identical to an uninstrumented server.  A view
    whose sink fails stops ({!Tkr_rec.Record.stopped}); the server
    keeps serving.

    Four statements are answered by the connection's thread without a
    slot (so they stay responsive while every slot is held and during a
    drain; one sent behind a running request of the same connection is
    answered after it): [STATS] (a JSON summary: counters, latency quantiles, cache,
    session plan outcomes, slowest plan fingerprints), [METRICS] (the OpenMetrics exposition of
    the middleware registry — engine and server counters, live gauges,
    build info, [tkr_ledger_*] families, the log view's drop counter),
    [HEALTH] ([ready]/[draining]) and [LEDGER] (the per-plan-fingerprint
    resource ledger: see {!Tkr_rec.Ledger.to_json}). *)

module Middleware = Tkr_middleware.Middleware
module Record = Tkr_rec.Record
module Ledger = Tkr_rec.Ledger

type config = {
  host : string;  (** bind address, default ["127.0.0.1"] *)
  port : int;  (** 0 picks an ephemeral port (see {!port}) *)
  max_sessions : int;
  queue_depth : int;  (** at most this many sessions wait for a slot *)
  cache_mb : int;  (** result-cache byte budget; 0 disables the cache *)
  workers : int;  (** at most this many requests execute at once *)
}

val default_config : config
(** 127.0.0.1:7643, 64 sessions, queue 128, 64 MiB cache, 8 workers. *)

type t

val start : ?config:config -> ?stream:Record.t -> Middleware.t -> t
(** Bind, listen and spawn the accept loop.  SIGPIPE is ignored from here
    on, process-wide, so a peer that hangs up before its reply is written
    costs a failed write, not the process.  [stream] (default
    {!Tkr_rec.Record.disabled}) receives every entry and lifecycle
    event; the caller owns it and closes it after {!stop}.
    @raise Unix.Unix_error when the address cannot be bound. *)

val port : t -> int
(** The actually bound port (useful with [port = 0]). *)

val config : t -> config
val cache_stats : t -> Cache.stats
val stopping : t -> bool

val ledger : t -> Ledger.t
(** The live resource ledger (always on); [LEDGER] serves its
    {!Tkr_rec.Ledger.to_json}. *)

val stats_json : t -> Tkr_obs.Json.t
(** The [STATS] payload: uptime, request/error counters, live gauges,
    latency quantiles (p50/p95/p99 of [serve_latency_us], which observes
    every finished request, errors included), cache stats, the
    sessions' plan outcomes ([plans]: [prepare]/[bind]/[hit], see
    {!Session.outcomes}) and the top slow-query fingerprints. *)

val metrics_text : t -> string
(** The [METRICS] payload: the OpenMetrics exposition of the middleware
    registry with the live gauges freshly sampled, plus the
    [tkr_build_info] family (git SHA, OCaml version), the result cache's
    own [serve_cache_{hits,misses,evictions}_total] counters
    ({!Cache.stats}), the sessions' [serve_plans_total{outcome=...}]
    counters, the [tkr_tel_events_dropped_total] counter of the log
    view's rate limit (when the log view is on) and the [tkr_ledger_*]
    per-fingerprint families. *)

val health_json : t -> Tkr_obs.Json.t
(** The [HEALTH] payload: [{"status": "ready" | "draining", ...}]. *)

val stop : ?reason:string -> t -> unit
(** Graceful drain: stop accepting connections and requests, wait until
    no request holds or awaits a slot, then shut every connection's
    socket (waking threads blocked on a read or on a write to a client
    that stopped reading) and join all threads.  A reply still being
    written at that moment may be cut short.  [reason]
    (default ["stop"]) tags the drain event in the log view — the CLI passes
    ["sigterm"].  Idempotent and safe to call from a signal-triggered
    context. *)

(** The Tkr_serve TCP query server.

    One accept loop, one reader thread per connection, a fixed pool of
    worker threads draining the {!Admission} queue.  Each connection is a
    {!Session} (prepared statements cached per statement text and
    revalidated against {!Tkr_middleware.Middleware.epoch}, so DDL/DML
    transparently re-prepares); queries execute on the shared,
    thread-safe {!Tkr_middleware.Middleware} — the pool of domains inside
    the middleware provides CPU parallelism, the worker threads provide
    request concurrency and IO overlap.

    Requests of one session execute one at a time, in arrival order: at
    most one job per session enters the admission queue, and requests
    arriving while it executes are chained behind it (the chain is
    bounded by [queue_depth]; past that the session gets [SERVER_BUSY]).
    A client that pipelines [INSERT ...] then [SELECT ...] on one
    connection therefore observes program order, and responses come back
    in request order.  Concurrency comes from having many sessions.

    Query results flow through the snapshot-aware {!Cache}: an entry is
    keyed on the normalized final plan and guarded by the
    [(table, version)] pairs it reads, all observed under one
    {!Tkr_middleware.Middleware.read_locked} bracket, so a hit replays
    bytes that are provably equal to a fresh evaluation.

    Backpressure and shutdown are typed wire errors: [SERVER_BUSY] past
    the queue's high-water mark, [DEADLINE_EXCEEDED] for requests still
    queued past their budget, [SERVER_SHUTDOWN] once draining, and
    [SESSION_LIMIT] for connections beyond [max_sessions].  {!stop}
    drains gracefully: accepted requests finish, then threads join.

    {2 Telemetry}

    A server started with a live {!Tkr_tel.Tel.t} logs typed JSONL
    events — connection open/close, request start/finish, cache
    hit/miss/evict, dependency invalidations, admission rejects, epoch
    bumps, drains, slow queries — each request line stamped with its
    trace id: the client's [trace_id] if one came on the wire, else a
    server-generated one, echoed back on the response.  With telemetry
    off and no client trace id, responses are byte-identical to an
    uninstrumented server.

    Four statements are answered by the reader thread itself, ahead of
    admission (so they stay responsive under a full queue and during a
    drain): [STATS] (a JSON summary: counters, latency quantiles, cache,
    slowest plan fingerprints), [METRICS] (the OpenMetrics exposition of
    the middleware registry — engine and server counters, live gauges,
    build info, [tkr_ledger_*] families, telemetry drop counter),
    [HEALTH] ([ready]/[draining]) and [LEDGER] (the per-plan-fingerprint
    resource ledger: see {!Tkr_rec.Ledger.to_json}).

    {2 Flight recording}

    Every finished request (ok, bypass statement, typed error or queued
    deadline) is described by one {!Tkr_rec.Record.entry}, built once
    when its reply is ready.  The response's [elapsed_us], the serve
    counters and [serve_latency_us], the resource ledger, the recorder
    and the event log's request-finish and slow-query lines all read
    from that one value.

    A server started with a live {!Tkr_rec.Record.t} appends that entry
    as one versioned JSONL line — canonical statement,
    session, arrival order, the [(table, version)] vector and catalog
    epoch observed at execution, cache disposition, queue/exec split, GC
    word deltas, rows in/out, and an MD5 digest of the exact response
    payload bytes.  Because the dependency vector is read under the same
    lock bracket the cache uses, a recording pins exactly the state a
    deterministic replay must reproduce.  Recording off (the default) is
    a physical-equality check per request. *)

module Middleware = Tkr_middleware.Middleware
module Tel = Tkr_tel.Tel
module Record = Tkr_rec.Record
module Ledger = Tkr_rec.Ledger

type config = {
  host : string;  (** bind address, default ["127.0.0.1"] *)
  port : int;  (** 0 picks an ephemeral port (see {!port}) *)
  max_sessions : int;
  queue_depth : int;  (** admission high-water mark *)
  cache_mb : int;  (** result-cache byte budget; 0 disables the cache *)
  workers : int;  (** worker threads draining the admission queue *)
  slow_ms : int;
      (** slow-query threshold: requests whose total latency reaches this
          emit a [slow_query] event (fingerprint, phase split, cache
          disposition) when telemetry is on *)
}

val default_config : config
(** 127.0.0.1:7643, 64 sessions, queue 128, 64 MiB cache, 8 workers,
    500 ms slow threshold. *)

type t

val start :
  ?config:config -> ?tel:Tel.t -> ?recorder:Record.t -> Middleware.t -> t
(** Bind, listen and spawn the accept loop and workers.  [tel] (default
    {!Tkr_tel.Tel.disabled}) receives the event log; [recorder] (default
    {!Tkr_rec.Record.disabled}) receives flight-recording entries.  The
    caller owns both and closes them after {!stop}.
    @raise Unix.Unix_error when the address cannot be bound. *)

val port : t -> int
(** The actually bound port (useful with [port = 0]). *)

val config : t -> config
val cache_stats : t -> Cache.stats
val stopping : t -> bool
val telemetry : t -> Tel.t
val recorder : t -> Record.t

val ledger : t -> Ledger.t
(** The live resource ledger (always on); [LEDGER] serves its
    {!Tkr_rec.Ledger.to_json}. *)

val stats_json : t -> Tkr_obs.Json.t
(** The [STATS] payload: uptime, request/error counters, live gauges,
    latency quantiles (p50/p95/p99 of [serve_latency_us], which observes
    every finished request, errors included), cache stats
    and the top slow-query fingerprints. *)

val metrics_text : t -> string
(** The [METRICS] payload: the OpenMetrics exposition of the middleware
    registry with the live gauges freshly sampled, plus the
    [tkr_build_info] family (git SHA, OCaml version), the
    [tkr_tel_events_dropped_total] counter (when telemetry is on) and
    the [tkr_ledger_*] per-fingerprint families. *)

val health_json : t -> Tkr_obs.Json.t
(** The [HEALTH] payload: [{"status": "ready" | "draining", ...}]. *)

val stop : ?reason:string -> t -> unit
(** Graceful drain: stop accepting connections and requests, let workers
    finish every accepted request, wake and join all threads.  [reason]
    (default ["stop"]) tags the drain event in the log — the CLI passes
    ["sigterm"].  Idempotent and safe to call from a signal-triggered
    context. *)

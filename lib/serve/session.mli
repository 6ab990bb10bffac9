(** Per-connection sessions and the session manager.

    A session holds the connection's prepared-statement table: statements
    are prepared once per (session, statement text) and re-executed on
    repetition, so clients replaying a workload skip the parse → analyze
    → rewrite → optimize pipeline after the first round.  Entries are
    validated against {!Middleware.epoch}: a plan bakes catalog state of
    prepare time (snapshot time bounds, schema arities), so after any
    DDL/DML the entry is stale and is transparently
    re-prepared on next use.  The manager enforces the server's
    [max_sessions] admission limit.

    Both are mutex-guarded and safe for concurrent callers. *)

module Middleware = Tkr_middleware.Middleware

type session

type manager

val manager : max_sessions:int -> manager

val open_session : manager -> session option
(** [None] when the manager is at [max_sessions]. *)

val close : manager -> session -> unit
(** Idempotent. *)

val id : session -> int
(** Unique for the manager's lifetime, starting at 1. *)

val active : manager -> int

val prepared : session -> Middleware.t -> string -> Middleware.prepared
(** The session's prepared statement for [stmt], preparing (and caching)
    it on first sight and re-preparing when the cached entry's
    {!Middleware.epoch} is stale (the catalog changed since).
    Call under {!Middleware.read_locked} when executing the returned plan,
    so no mutation can intervene between validation and execution.
    Raises whatever {!Middleware.prepare} raises; failures are not
    cached. *)

val prepared_count : session -> int

(** Per-connection sessions and the session manager.

    A session holds the connection's prepared-statement table: statements
    are prepared once per (session, statement text) and re-executed on
    repetition, so clients replaying a workload skip the parse → analyze
    → rewrite → optimize pipeline after the first round.  Entries are
    validated against {!Middleware.epoch}: a plan bakes catalog state of
    prepare time (snapshot time bounds, schema arities), so once the
    epoch moves (any DDL/DML that changed something) every entry is
    stale; the table is emptied and statements are transparently
    re-prepared on next use.  The table holds at most a fixed number of
    plans and starts over when full.  The manager enforces the server's
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
    it on first sight and re-preparing once {!Middleware.epoch} has moved
    (the catalog changed since), which also drops every other stale
    entry.
    Call under {!Middleware.read_locked} when executing the returned plan,
    so no mutation can intervene between validation and execution.
    Raises whatever {!Middleware.prepare} raises; failures are not
    cached. *)

val prepared_count : session -> int
(** Plans the session holds now. *)

(** Per-connection sessions and the session manager.

    A session holds the connection's prepared-statement table: statements
    are prepared once per (session, statement text) and re-executed on
    repetition, so clients replaying a workload skip the parse → analyze
    → rewrite → optimize pipeline after the first round.  Each entry
    also carries the plan's result-cache key and fingerprint, computed
    once when the plan is prepared.  Entries are
    validated against {!Middleware.epoch}: a plan bakes catalog state of
    prepare time (snapshot time bounds, schema arities), so once the
    epoch moves (any DDL/DML that changed something) every entry is
    stale; the table is emptied and statements are transparently
    re-prepared on next use.  The table holds at most a fixed number of
    plans and starts over when full.  The manager enforces the server's
    [max_sessions] admission limit.

    The manager is mutex-guarded and safe for concurrent callers.  A
    session belongs to its connection's thread, the only one that
    touches its table. *)

module Middleware = Tkr_middleware.Middleware

type plan = {
  prepared : Middleware.prepared;
  key : string;
      (** the result-cache key: the normalized final plan plus the
          post-plan shape (ordering, limit, snapshot rendering) *)
  fp : string;
      (** the key's short digest: the identity the slow-query log, the
          ledger and [top] aggregate on *)
}

type session

type manager

val manager : max_sessions:int -> manager

val open_session : manager -> session option
(** [None] when the manager is at [max_sessions]. *)

val close : manager -> session -> unit
(** Call once, when the session's connection ends. *)

val id : session -> int
(** Unique for the manager's lifetime, starting at 1. *)

val active : manager -> int

val fingerprint : string -> string
(** The 12-hex-digit MD5 prefix of a text; statements normalizing to the
    same plan share one plan fingerprint. *)

val prepared : session -> Middleware.t -> string -> plan
(** The session's plan for [stmt], preparing (and caching)
    it on first sight and re-preparing once {!Middleware.epoch} has moved
    (the catalog changed since), which also drops every other stale
    entry.
    Call under {!Middleware.read_locked} when executing the returned plan,
    so no mutation can intervene between validation and execution.
    Raises whatever {!Middleware.prepare} raises; failures are not
    cached. *)

val prepared_count : session -> int
(** Plans the session holds now. *)

(** Per-connection sessions and the session manager.

    A session holds the connection's plans, grouped by statement shape:
    texts that differ only in the literal of a top-level [AS OF] point
    share one shape (any other text is a shape of its own).  A shape is
    analyzed and checked once ({!Middleware.shape}); each point it is
    read at is bound to a plan of its own ({!Middleware.bind}), which
    later requests at that point reuse.  Each plan also carries its
    result-cache key and fingerprint, computed once when it is bound.

    Validity follows the catalog value a request pins:
    - after DDL or any change of the time bounds, the shape is analyzed
      again ({!Middleware.shape_valid});
    - after DML inside the time bounds ({!Middleware.epoch} moved), the
      optimizer runs again on the new rows, and the shape's plans stand
      when its plan is unchanged, or are bound afresh when not.
    Either way a plan is the one {!Middleware.prepare} would make at
    the pinned value.  A session holds at most {!max_plans} plans and
    drops the one used longest ago to make room.  The manager enforces
    the server's [max_sessions] admission limit and counts every plan
    outcome of its sessions.

    The manager is mutex-guarded and safe for concurrent callers.  A
    session belongs to its connection's thread, the only one that
    touches its plans. *)

module Middleware = Tkr_middleware.Middleware

type plan = {
  prepared : Middleware.prepared;
  key : string;
      (** the result-cache key: the final plan's {!Tkr_relation.Algebra.add_key}
          bytes (every node, expression and constant, tagged and
          length-prefixed), then the post-plan shape: the ordering's
          length and each column and direction, the limit and the
          snapshot flag.  Made in one walk into a buffer, without
          rendering the plan; equal plans give equal keys and distinct
          plans distinct ones *)
  fp : string;
      (** {!fingerprint} [key]: the identity the stream's entries, the
          ledger and [top] aggregate on.  Its bytes are not those of
          servers that keyed plans by their {!Tkr_relation.Algebra.to_string}
          rendering; replay compares results, not fingerprints, so
          their recordings still replay *)
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

val max_plans : int
(** The most plans a session holds: 256. *)

val prepared : session -> Middleware.t -> string -> Tkr_sql.Ast.statement -> plan
(** [prepared s t text stmt] is the session's plan for the query
    statement [stmt] parsed from [text]: reused, bound from its known
    shape, or prepared from scratch (see above); nothing is parsed.
    Pass a {!Middleware.pin}ned middleware and execute the returned plan
    on that same one, so validation and execution see one catalog
    value.
    Raises whatever {!Middleware.prepare} raises; failures are not
    cached. *)

val prepared_count : session -> int
(** Plans the session holds now. *)

val outcomes : manager -> (string * int) list
(** How {!prepared} answered, over every session of the manager:
    [("prepare", n)] analyzed a shape from scratch, [("bind", n)] bound a
    known shape, [("hit", n)] reused a plan. *)

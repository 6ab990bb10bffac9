(** Deterministic replay of a flight recording against a live server.

    Replay reproduces the recorded workload's *order*, then checks that
    the server reproduces the recorded *bytes*:

    - each recorded session gets its own wire connection, so the
      server's per-session FIFO guarantee applies to replayed traffic
      exactly as it did to the original;
    - a global turnstile releases requests one at a time in recorded
      arrival ([e_seq]) order, so cross-session interleaving of DML and
      queries is reproduced too — per-session program order is a
      subsequence of the global order;
    - entries that recorded no table-version vector (DDL/DML, meta
      statements, errors) are {e write barriers}: the pipeline is
      drained before they go out and the turn is held until their
      response arrives.  Between barriers the recorded dependency
      vectors are constant, so reads commute and may pipeline freely —
      the snapshot-equivalence argument behind the result cache is
      exactly what licenses replay's concurrency;
    - every comparable response is digested the way capture digested it
      (exact ok-frame payload bytes, or error code/message) and diffed
      against [e_digest].

    Recorded [DEADLINE_EXCEEDED] / [SERVER_BUSY] outcomes are requests
    the capture server rejected before running them — an outcome of
    capture-time load, not of the data.  They keep their turn in the
    arrival order but are not sent (a rejected write re-sent would run
    at replay, where it never ran at capture), are excluded from the
    byte-diff and are counted as [skipped].

    With [paced] the sender additionally sleeps until each request's
    recorded monotonic offset, reproducing the original arrival tempo;
    the default replays as fast as admission allows. *)

module Record = Tkr_rec.Record

type mismatch = {
  mm_seq : int;
  mm_session : int;  (** recorded session id *)
  mm_stmt : string;
  mm_expected : string;  (** recorded digest *)
  mm_got : string;  (** digest of the replayed response *)
}

type outcome = {
  total : int;
  compared : int;  (** entries byte-diffed (total - skipped - failed) *)
  matched : int;
  mismatches : mismatch list;
  skipped : int;  (** recorded deadline/busy rejections, not sent *)
  failed : int;  (** no response arrived (connection died) *)
  cached : int;  (** replayed responses served from the result cache *)
  wall_ns : float;
  lat_us : float array;  (** per-entry send-to-receive latency *)
  sessions : int;
}

val run :
  ?paced:bool -> ?host:string -> port:int -> Record.entry list -> outcome
(** Replay [entries] (in the given order — [Record.read_file] already
    sorts by [e_seq]) against the server at [host]:[port] (default
    [127.0.0.1]).  Blocks until every response arrived or every
    connection died.
    @raise Tkr_serve.Wire.Protocol_error if a connection is refused at
    setup. *)

val identical : outcome -> bool
(** No mismatches, no transport failures, every compared entry
    matched. *)

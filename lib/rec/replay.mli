(** Deterministic replay of a flight recording against a live server.

    Replay reproduces the recorded workload's *order*, then checks that
    the server reproduces the recorded *bytes*:

    - each recorded session gets its own wire connection, so the
      server's per-session FIFO guarantee applies to replayed traffic
      exactly as it did to the original.  A connection closes once its
      session's last entry is answered; past 256 sessions, a session is
      dialed at its first entry, so the sockets open at once stay within
      [Unix.select]'s reach;
    - one loop on the calling thread walks the entries in recorded
      arrival ([e_seq]) order and sends each in turn, so the send order
      is the global order: cross-session interleaving of DML and queries
      is reproduced, and per-session program order is a subsequence of
      it.  While it waits, the loop [select]s over the sockets with
      requests in flight and files each response under its id;
    - a read goes out once its session has fewer than 32 requests in
      flight;
    - entries that recorded no table-version vector (DDL/DML, meta
      statements, errors) are {e write barriers}: one goes out only when
      nothing is in flight on any session, and the next entry waits for
      its response.  Between barriers the recorded dependency vectors
      are constant, so reads commute and may pipeline freely — the
      snapshot-equivalence argument behind the result cache is exactly
      what licenses replay's pipelining;
    - every comparable response is digested the way capture digested it
      (exact ok-frame payload bytes, or error code/message) and diffed
      against [e_digest].

    A connection whose read or write fails marks its session dead: its
    in-flight and later entries get no response and count as [failed],
    the other sessions go on, and a barrier waits only for the live
    ones.

    Recorded [DEADLINE_EXCEEDED] outcomes and requests refused at
    admission (disposition [rejected]: [SERVER_BUSY] or
    [SERVER_SHUTDOWN]) are requests the capture server rejected before
    running them — an outcome of capture-time load, not of the data.
    They keep their turn in the arrival order but are not sent (a
    rejected write re-sent would run at replay, where it never ran at
    capture), are excluded from the byte-diff and are counted as
    [skipped].

    With [paced] the loop additionally holds each request until its
    recorded monotonic offset, reading responses meanwhile, reproducing
    the original arrival tempo; the default replays as fast as the
    server answers. *)

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
  sessions : int;
}

val run :
  ?paced:bool -> ?host:string -> port:int -> Record.entry list -> outcome
(** Replay [entries] (in the given order — [Record.read_file] already
    sorts by [e_seq]) against the server at [host]:[port] (default
    [127.0.0.1]).  Returns once every sent request was answered or
    its connection died.
    @raise Tkr_serve.Wire.Protocol_error if a session's connection is
    refused. *)

val identical : outcome -> bool
(** No mismatches, no transport failures, every compared entry
    matched. *)

(** Structured JSONL event log for the serve path.

    Each emitted line is a JSON object with [ts_ms] (wall-clock integer
    milliseconds since the epoch), [mono_ns] (monotonic nanoseconds),
    [seq], [severity], [event] and the event's own fields.  Request events carry the wire-propagated trace
    id so log lines correlate with response envelopes and execution
    traces on one id.

    Emission is mutex-serialized and rate-limited per second of the
    monotonic clock; drops are counted and announced by a synthetic
    [rate_limited] line at the next window rollover.  The {!disabled}
    log makes every operation a no-op — call sites guard event
    construction on {!enabled} so disabled telemetry costs nothing. *)

type severity = Debug | Info | Warn | Error

val severity_to_string : severity -> string

type event =
  | Conn_open of { session : int }
  | Conn_close of { session : int }
  | Request_start of {
      session : int;
      req_id : int;
      trace_id : string;
      stmt : string;
    }
  | Request_finish of {
      session : int;
      req_id : int;
      trace_id : string;
      status : string;  (** ["ok"] or the wire error code *)
      cached : bool;
      elapsed_us : int;
    }
  | Cache_hit of { fingerprint : string }
  | Cache_miss of { fingerprint : string }
  | Cache_evict of { count : int }
  | Invalidation of { table : string; version : int }
  | Admission_reject of { session : int; reason : string }
  | Epoch_bump of { epoch : int }
  | Drain of { reason : string }
  | Slow_query of {
      trace_id : string;
      fingerprint : string;
      stmt : string;
      queue_us : int;
      exec_us : int;
      total_us : int;
      disposition : string;  (** cache disposition: hit/miss/off/bypass *)
    }

val severity_of : event -> severity
(** The severity {!emit} attaches to each event kind. *)

type t

val disabled : t
(** The shared no-op log: [enabled disabled = false] and {!emit} returns
    immediately. *)

val default_rate_limit : int
(** The default events-per-second ceiling (5000) — exported so CLI
    option help and defaults stay in sync with the implementation. *)

val create :
  ?clock:Tkr_obs.Clock.t ->
  ?wall:(unit -> float) ->
  ?rate_limit:int ->
  Tkr_obs.Jsonl.sink ->
  t
(** [rate_limit] is the events-per-second ceiling (default
    {!default_rate_limit}; [0] = unlimited).  [clock] and [wall] are
    injectable for tests. *)

val enabled : t -> bool
(** [false] for {!disabled} and for closed logs.  Guard event
    construction on this to keep disabled telemetry allocation-free. *)

val emit : t -> event -> unit

val emitted : t -> int
(** Lines written (excluding synthetic [rate_limited] lines). *)

val dropped : t -> int
(** Events discarded by the rate limiter. *)

val close : t -> unit
(** Flush and disable.  Idempotent; the underlying channel (if any) is
    not closed — the caller owns it. *)

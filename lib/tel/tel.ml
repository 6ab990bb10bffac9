(** Tkr_tel: the live-telemetry event log.

    A {!t} writes the typed serve-path events below to a
    {!Tkr_obs.Jsonl} sink.  Every line carries a wall-clock timestamp
    ([ts_ms], integer milliseconds since the epoch), a monotonic
    timestamp ([mono_ns], for ordering and latency arithmetic), a
    per-log sequence number, a severity and the event's own fields.
    Request events carry the wire-propagated trace id, so a log line,
    the response envelope and the optional execution trace all correlate
    on one id.

    The {!disabled} log is free: {!enabled} is a physical-equality
    check, and instrumentation sites guard event construction on it, so
    a server without telemetry allocates nothing per request.

    Emission is rate-limited (token window per second of the monotonic
    clock); dropped events are counted and announced by one synthetic
    [rate_limited] line when the window rolls over, so the log says that
    it lied rather than silently thinning.  All operations are
    mutex-serialized — the accept loop and the connection threads share
    one log. *)

module Json = Tkr_obs.Json
module Jsonl = Tkr_obs.Jsonl
module Clock = Tkr_obs.Clock

type severity = Debug | Info | Warn | Error

let severity_to_string = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

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

let severity_of : event -> severity = function
  | Conn_open _ | Conn_close _ | Request_start _ | Cache_hit _ | Cache_miss _
  | Epoch_bump _ ->
      Debug
  | Request_finish { status; _ } -> if status = "ok" then Info else Error
  | Cache_evict _ | Invalidation _ | Drain _ -> Info
  | Admission_reject _ | Slow_query _ -> Warn

let event_fields : event -> string * (string * Json.t) list = function
  | Conn_open { session } -> ("conn_open", [ ("session", Json.Int session) ])
  | Conn_close { session } -> ("conn_close", [ ("session", Json.Int session) ])
  | Request_start { session; req_id; trace_id; stmt } ->
      ( "request_start",
        [
          ("session", Json.Int session);
          ("id", Json.Int req_id);
          ("trace_id", Json.Str trace_id);
          ("stmt", Json.Str stmt);
        ] )
  | Request_finish { session; req_id; trace_id; status; cached; elapsed_us } ->
      ( "request_finish",
        [
          ("session", Json.Int session);
          ("id", Json.Int req_id);
          ("trace_id", Json.Str trace_id);
          ("status", Json.Str status);
          ("cached", Json.Bool cached);
          ("elapsed_us", Json.Int elapsed_us);
        ] )
  | Cache_hit { fingerprint } ->
      ("cache_hit", [ ("fingerprint", Json.Str fingerprint) ])
  | Cache_miss { fingerprint } ->
      ("cache_miss", [ ("fingerprint", Json.Str fingerprint) ])
  | Cache_evict { count } -> ("cache_evict", [ ("count", Json.Int count) ])
  | Invalidation { table; version } ->
      ( "invalidation",
        [ ("table", Json.Str table); ("version", Json.Int version) ] )
  | Admission_reject { session; reason } ->
      ( "admission_reject",
        [ ("session", Json.Int session); ("reason", Json.Str reason) ] )
  | Epoch_bump { epoch } -> ("epoch_bump", [ ("epoch", Json.Int epoch) ])
  | Drain { reason } -> ("drain", [ ("reason", Json.Str reason) ])
  | Slow_query { trace_id; fingerprint; stmt; queue_us; exec_us; total_us;
                 disposition } ->
      ( "slow_query",
        [
          ("trace_id", Json.Str trace_id);
          ("fingerprint", Json.Str fingerprint);
          ("stmt", Json.Str stmt);
          ("queue_us", Json.Int queue_us);
          ("exec_us", Json.Int exec_us);
          ("total_us", Json.Int total_us);
          ("disposition", Json.Str disposition);
        ] )

type t = {
  mutable sink : Jsonl.sink;  (** flipped to [Null] by {!close} *)
  lock : Mutex.t;
  clock : Clock.t;
  wall : unit -> float;
  max_per_sec : int;  (** 0 = unlimited *)
  mutable window_start : int64;  (** monotonic ns of the current window *)
  mutable window_count : int;
  mutable window_dropped : int;
  mutable dropped_total : int;
  mutable emitted_total : int;
  mutable seq : int;
}

let default_rate_limit = 5_000

let disabled : t =
  {
    sink = Jsonl.Null;
    lock = Mutex.create ();
    clock = Clock.monotonic;
    wall = Unix.gettimeofday;
    max_per_sec = 0;
    window_start = 0L;
    window_count = 0;
    window_dropped = 0;
    dropped_total = 0;
    emitted_total = 0;
    seq = 0;
  }

let create ?(clock = Clock.monotonic) ?(wall = Unix.gettimeofday)
    ?(rate_limit = default_rate_limit) sink : t =
  {
    sink;
    lock = Mutex.create ();
    clock;
    wall;
    max_per_sec = max 0 rate_limit;
    window_start = clock ();
    window_count = 0;
    window_dropped = 0;
    dropped_total = 0;
    emitted_total = 0;
    seq = 0;
  }

let enabled t = t.sink != Jsonl.Null (* phys: [disabled] is shared and immutable *)

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let line t ~mono_ns ~severity ~name fields : Json.t =
  t.seq <- t.seq + 1;
  Json.Obj
    (* integer milliseconds: exact in JSON, unlike a float epoch *)
    (("ts_ms", Json.Int (int_of_float (t.wall () *. 1000.)))
    :: ("mono_ns", Json.Int (Int64.to_int mono_ns))
    :: ("seq", Json.Int t.seq)
    :: ("severity", Json.Str (severity_to_string severity))
    :: ("event", Json.Str name)
    :: fields)

let emit t (e : event) : unit =
  if enabled t then
    locked t @@ fun () ->
    match t.sink with
    | Jsonl.Null -> () (* closed between the check and the lock *)
    | _ ->
        let now = t.clock () in
        (* roll the one-second window; announce what the full one ate *)
        if Int64.sub now t.window_start >= 1_000_000_000L then begin
          if t.window_dropped > 0 then
            Jsonl.write t.sink
              (line t ~mono_ns:now ~severity:Warn ~name:"rate_limited"
                 [ ("dropped", Json.Int t.window_dropped) ]);
          t.window_start <- now;
          t.window_count <- 0;
          t.window_dropped <- 0
        end;
        if t.max_per_sec > 0 && t.window_count >= t.max_per_sec then begin
          t.window_dropped <- t.window_dropped + 1;
          t.dropped_total <- t.dropped_total + 1
        end
        else begin
          t.window_count <- t.window_count + 1;
          t.emitted_total <- t.emitted_total + 1;
          let name, fields = event_fields e in
          Jsonl.write t.sink
            (line t ~mono_ns:now ~severity:(severity_of e) ~name fields)
        end

let emitted t = locked t (fun () -> t.emitted_total)
let dropped t = locked t (fun () -> t.dropped_total)

let close t =
  locked t @@ fun () ->
  Jsonl.flush t.sink;
  t.sink <- Jsonl.Null

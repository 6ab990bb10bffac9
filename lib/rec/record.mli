(** Flight-recording capture: a versioned JSONL document, one line per
    finished request, written by the serve tier when recording is on.

    The first line is a {!header} (magic, format version, the built-in
    workload the catalog came from); every further line is an {!entry}.
    Entries are appended at request *finish* time — under concurrency the
    file is in completion order — and each carries the [seq] stamped at
    admission, so {!read_file} restores arrival order.

    An entry pins everything a deterministic replay needs: the canonical
    wire statement, the session that issued it (per-session program order
    is the server's FIFO guarantee), the [(table, version)] dependency
    vector and catalog epoch observed at execution — the same snapshot
    -equivalence key the result cache proves byte-identity with — and an
    MD5 {!digest} of the exact response payload bytes (floats travel as
    [%h] literals on the wire, so the digest is bit-exact).  The
    remaining fields (queue/exec split, GC word deltas, rows in/out,
    cache disposition) feed the resource ledger and offline analysis.

    An {!entry} is also the serve tier's one per-request record: the
    server builds it for every finished request, views on or off, and
    feeds its counters, the {!Ledger} and the stream's two views (below)
    from it. *)

module Json = Tkr_obs.Json

exception Format_error of string
(** Bad magic, unsupported version, or a malformed record line. *)

val format_version : int

val digest : string -> string
(** MD5 hex of the exact payload bytes (the string {!Tkr_serve.Wire}
    caches and splices into ok frames). *)

val digest_error : code:string -> message:string -> string
(** The digest recorded for error responses: code and message are the
    only stable bytes of an error frame. *)

type header = {
  h_version : int;
  h_started_ms : int;  (** wall-clock ms when the capture began *)
  h_workload : string option;
      (** built-in catalog the server was started with, when known —
          replay rebuilds the same initial database from it *)
  h_source : string;  (** free-form producer tag, e.g. ["tkr_cli serve"] *)
}

val header : ?workload:string -> ?source:string -> unit -> header
val header_to_json : header -> Json.t

val header_of_json : Json.t -> header
(** @raise Format_error on bad magic or an unsupported version. *)

type entry = {
  e_seq : int;  (** global arrival order, stamped at admission *)
  e_session : int;
  e_req_id : int;  (** the client's request id *)
  e_trace_id : string option;
  e_stmt : string;  (** canonical wire statement *)
  e_deadline_ms : int option;
  e_arrive_ms : int;  (** wall-clock ms at arrival *)
  e_arrive_ns : int64;  (** monotonic ns at arrival, for [--paced] replay *)
  e_queue_us : int;  (** arrival to execution start *)
  e_exec_us : int;  (** execution start to finish *)
  e_total_us : int;
  e_status : string;  (** ["ok"] or the wire error code *)
  e_cached : bool;
  e_disposition : string;
      (** hit | miss | bypass | off | error | rejected (refused at
          admission: [SERVER_BUSY] or [SERVER_SHUTDOWN]) *)
  e_fp : string;  (** plan fingerprint *)
  e_epoch : int;  (** middleware catalog epoch at execution *)
  e_deps : (string * int) list;  (** table-version vector at execution *)
  e_rows_in : int;  (** total cardinality of the dependency tables *)
  e_rows_out : int;
  e_gc_minor_w : int;  (** GC minor words allocated during the request *)
  e_gc_major_w : int;
  e_digest : string;  (** response digest ({!digest} / {!digest_error}) *)
}

val entry_to_json : entry -> Json.t

val entry_of_json : Json.t -> entry
(** @raise Format_error on a record without [stmt]. *)

(** {2 The stream}

    The serve tier's one observability stream: every finished request's
    {!entry} and five lifecycle {!event}s, written to up to two JSONL
    views.

    - The {e recording} view ([serve --record]) is the flight
      recording: the {!header}, then one {!entry_to_json} line per
      entry.  It is never rate-limited, so a recording is complete.
    - The {e log} view ([serve --log]) writes one line per entry and
      per event.  Every line opens with the envelope [ts_ms] (wall-clock
      integer milliseconds), [mono_ns] (monotonic nanoseconds), [seq],
      [severity] and [event].  An entry's line is
      ["event":"request_finish"]: its [seq] is the entry's, and the rest
      of {!entry_to_json}'s fields follow, so the log and the recording
      agree field by field.  An event's line carries its own fields
      below.  The log view writes at most
      5,000 lines per second of the monotonic clock; a window that
      dropped lines is announced by one synthetic [rate_limited] line
      ([dropped]) when the next one opens, and {!dropped} counts them.

    [seq] is the stream's one order: an entry's is stamped at its
    request's arrival ({!next_seq}), an event's and a [rate_limited]
    line's when it is written.

    {!disabled} is shared and has both views off: {!logging} and
    {!recording} are one physical-equality check each, and the server
    guards all work only a view consumes (trace-id minting, the
    response {!digest}) on them.  A view whose sink raises stops, and
    {!stopped} names it with the error: a write error never reaches the
    server's threads.  All operations are mutex-serialized. *)

(** The lifecycle events: what the log says that no entry does.  [sid]
    and [req] are the session and request ids, named as in an entry. *)
type event =
  | Conn_open of { sid : int }
  | Conn_close of { sid : int }
  | Request_start of {
      sid : int;
      req : int;
      trace_id : string option;
      stmt : string;
    }
  | Admission_reject of { sid : int; reason : string }
      (** a connection refused at the session limit ([sid] 0,
          [reason] ["session_limit"]): no request exists, so no entry
          says it.  A request refused at admission is an entry with
          disposition ["rejected"]. *)
  | Drain of { reason : string }

type t

val disabled : t
(** Both views off. *)

val create :
  ?clock:Tkr_obs.Clock.t ->
  ?wall:(unit -> float) ->
  ?log:Tkr_obs.Jsonl.sink ->
  ?record:Tkr_obs.Jsonl.sink ->
  ?header:header ->
  unit ->
  t
(** A stream with a log view on [log] and a recording view on [record]
    (each off when absent; {!disabled} when both are).  The recording's
    [header] line is written here.  [clock] and [wall] stamp the log's
    envelope and drive its rate limit; they are injectable for tests.
    The caller owns the channels (if any) and closes them after
    {!close}. *)

val logging : t -> bool
(** The log view is on. *)

val recording : t -> bool
(** The recording view is on. *)

val next_seq : t -> int
(** The stream's next [seq]: the server stamps each request's arrival
    with it. *)

val write : t -> entry -> unit
(** One finished request, to both views. *)

val emit : t -> event -> unit
(** One lifecycle event, to the log view. *)

val recorded : t -> int
(** Entries the recording view has written. *)

val dropped : t -> int
(** Log lines the rate limit discarded. *)

val stopped : t -> (string * string) list
(** The views (["log"], ["record"]) a write error stopped, each with its
    error. *)

val close : t -> unit
(** Flush and turn both views off.  Idempotent; does not close the
    channels. *)

(** {2 Reading} *)

val read_channel : in_channel -> header * entry list
(** Parse a recording; entries come back sorted by [e_seq] (arrival
    order).
    @raise Format_error on bad magic/version or malformed lines. *)

val read_file : string -> header * entry list

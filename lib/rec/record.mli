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
    server builds it for every finished request, recording on or off,
    and feeds its counters, the {!Ledger} and the event log from it.

    The recorder writes to the same {!Tkr_obs.Jsonl} sink as
    [Tkr_tel.Tel]: {!disabled} is a shared no-op value, {!enabled} is a
    physical-equality check, and the server guards the response
    {!digest} on it so recording off costs no MD5. *)

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
  e_disposition : string;  (** hit | miss | bypass | off | error *)
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

(** {2 Recorder} *)

type t

val disabled : t
(** The shared no-op recorder: [enabled disabled = false] and {!write}
    returns immediately. *)

val create : ?header:header -> Tkr_obs.Jsonl.sink -> t
(** Open a recorder and emit the header line.  The caller owns the
    channel (if any) and closes it after {!close}. *)

val enabled : t -> bool
(** [false] for {!disabled} and closed recorders.  Guard work that only
    the recorder consumes (the response {!digest}) on this. *)

val write : t -> entry -> unit
(** Append one entry; a no-op when not {!enabled}. *)

val recorded : t -> int
(** Entries written so far. *)

val close : t -> unit
(** Flush and disable.  Idempotent; does not close the channel. *)

(** {2 Reading} *)

val read_channel : in_channel -> header * entry list
(** Parse a recording; entries come back sorted by [e_seq] (arrival
    order).
    @raise Format_error on bad magic/version or malformed lines. *)

val read_file : string -> header * entry list

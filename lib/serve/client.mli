(** Synchronous client for the Tkr_serve wire protocol.

    One connection, one request in flight at a time (the server accepts
    pipelined requests; this client keeps the simple call/response shape
    the CLI and tests need).  Thread-safe: concurrent callers serialize on an
    internal lock.  For concurrency, open one client per thread. *)

type t

exception Server_error of Wire.error
(** Raised by {!run_exn} and {!connect} (for [SESSION_LIMIT]
    rejections). *)

val dial : ?host:string -> port:int -> unit -> Unix.file_descr * int
(** Dial and read the greeting: the raw socket and its session id, for
    callers that drive the protocol themselves.
    @raise Server_error when the server rejects the connection.
    @raise Unix.Unix_error when the server is unreachable. *)

val connect : ?host:string -> port:int -> unit -> t
(** {!dial}, wrapped in a synchronous client.
    @raise Server_error when the server rejects the connection.
    @raise Unix.Unix_error when the server is unreachable. *)

val session_id : t -> int

val request : t -> Wire.request -> Wire.response
(** Send one request and wait for its response.
    @raise Wire.Protocol_error when the response id does not match the
    request id (desynchronized stream). *)

val run :
  ?deadline_ms:int -> ?trace:bool -> ?trace_id:string -> t -> string ->
  Wire.response
(** {!request} with an auto-assigned id.  [trace_id] is the correlation
    id the server stamps on its event-log lines for this request and
    echoes on the response. *)

val run_exn :
  ?deadline_ms:int -> ?trace:bool -> ?trace_id:string -> t -> string ->
  Wire.response
(** Like {!run} but raises {!Server_error} on error responses. *)

val close : t -> unit
(** Idempotent. *)

val with_client : ?host:string -> port:int -> (t -> 'a) -> 'a
(** Connect, run, always close. *)

(** The Tkr_serve wire protocol: length-prefixed JSON frames.

    Frame format: a 4-byte big-endian payload length followed by that
    many bytes of JSON (frames above {!max_frame} are protocol errors).
    A connection opens with a server {e greeting} (or a rejection), then
    carries request/response pairs correlated by [id].  A client may
    pipeline; the server answers a connection's requests one at a time,
    in request order.

    Floats are encoded as OCaml [%h] hexadecimal literals, so every value
    round-trips bit-exactly: rendering a wire table client-side produces
    the same bytes as rendering it in the server process, which is what
    lets the result cache replay stored payloads verbatim. *)

module Json = Tkr_obs.Json
module Table = Tkr_engine.Table

exception Protocol_error of string

val max_frame : int
(** Hard frame cap (256 MiB). *)

val proto_version : int

(* ---- frame I/O ---- *)

val write_frame : Unix.file_descr -> string -> unit
val read_frame : Unix.file_descr -> string option
(** [None] on a clean peer close before the first header byte.
    @raise Protocol_error on truncated or oversized frames. *)

(* ---- requests ---- *)

type request = {
  id : int;
  stmt : string;
  deadline_ms : int option;
      (** time budget from receipt; a request granted its execution slot
          past it is cancelled with [Deadline_exceeded] *)
  trace : bool;  (** attach the Tkr_obs execution trace to the response *)
  trace_id : string option;
      (** client-supplied correlation id, echoed on the response and
          stamped on every server-side event-log line for this request *)
}

val request :
  ?id:int ->
  ?deadline_ms:int ->
  ?trace:bool ->
  ?trace_id:string ->
  string ->
  request
val request_to_json : request -> Json.t
val request_of_json : Json.t -> request

(* ---- responses ---- *)

type error_code =
  | Parse_error
  | Check_error
  | Runtime_error
  | Server_busy
  | Deadline_exceeded
  | Server_shutdown
  | Session_limit
  | Protocol_violation

val error_code_to_string : error_code -> string
val error_code_of_string : string -> error_code

type error = { code : error_code; message : string }

type body = Rows of Table.t | Message of string

type response = {
  rsp_id : int;
  cached : bool;  (** served from the snapshot-aware result cache *)
  elapsed_us : int;
  body : (body, error) result;
  rsp_trace : Json.t option;
  rsp_trace_id : string option;
      (** the correlation id the server logged this request under:
          echoes the request's [trace_id], or a server-generated id when
          the event log is on and the client sent none *)
}

val body_to_payload : body -> string
(** The result payload as JSON text — the exact string the result cache
    stores, so cached responses are byte-identical to fresh ones.  Rows
    render from the table's columnar image ({!Table.columnar}), each cell
    read from its column's element type, straight into one buffer:
    [{"kind":"rows","schema":[["name","ty"],...],"rows":[[v,...],...]}]
    with [null], [true]/[false], decimal ints, strings and floats as
    [{"f":"<%h>"}]; a message is [{"kind":"done","message":"..."}]. *)

val ok_frame :
  id:int ->
  cached:bool ->
  elapsed_us:int ->
  ?trace:Json.t ->
  ?trace_id:string ->
  string ->
  string
(** Assemble an ok envelope around a pre-rendered payload string.  The
    [trace_id] field is omitted entirely when [None], so frames stay
    byte-identical to a telemetry-free server for clients that never
    send one. *)

val ok_frame_payload : string -> string option
(** Recover the exact payload bytes from an assembled ok frame — the
    inverse of {!ok_frame}, used by replay to digest responses the way
    the recorder digested them (no reparse, no re-render).  [None] if
    the frame is not an ok envelope. *)

val error_frame : id:int -> ?trace_id:string -> error -> string

val response_of_string : string -> response
(** Decode a response frame in one pass: an ok frame's rows go straight
    into typed columns of the element types its schema declares, with
    no JSON tree and no tuple in between, and become a table made from
    columns ({!Table.of_batch}), whose rows are boxed when first asked
    for.  A cell in the form the encoder writes it is read by one byte
    loop, with no string made for an int, a float or a literal; any other
    form decodes, and fails, exactly as {!Json.Scan} reads it.  A column holds its cells boxed from the first cell that does
    not fit its declared type.  The payload's ["rows"] may come before
    its ["schema"] (then they are decoded once the schema is read).
    @raise Protocol_error or [Json.Parse_error] on a malformed frame,
    including a row whose width differs from the schema's. *)

(* ---- greeting ---- *)

val greeting_frame : session_id:int -> string
val greeting_of_string : string -> (int, error) result
(** [Ok session_id] on a greeting, [Error e] on a rejection frame. *)

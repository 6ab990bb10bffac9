(** The Tkr_serve wire protocol: length-prefixed JSON frames.

    Every message is one frame: a 4-byte big-endian payload length
    followed by that many bytes of JSON.  Values round-trip exactly —
    floats travel as hexadecimal literals ([%h]) so a cached result is
    byte-identical to a fresh one and the client renders the same text
    the server-side engine would. *)

open Tkr_relation
module Json = Tkr_obs.Json
module Table = Tkr_engine.Table

exception Protocol_error of string

let max_frame = 256 * 1024 * 1024
(** Hard frame cap (256 MiB): anything larger is a protocol error, not an
    allocation attempt. *)

(* ---- frame I/O ---- *)

let really_write fd (buf : Bytes.t) =
  let len = Bytes.length buf in
  let off = ref 0 in
  while !off < len do
    let n = Unix.write fd buf !off (len - !off) in
    if n = 0 then raise (Protocol_error "short write");
    off := !off + n
  done

let read_chunk = 64 * 1024

(* Read exactly [len] bytes, at most [read_chunk] per read.  The buffer
   starts at one chunk and doubles only as bytes arrive, so a peer that
   announces a large frame and stalls pins memory in proportion to what
   it sent, not to the announced length; a frame of at most one chunk
   costs one allocation of its own size.  EOF before the first byte is a
   clean close ([None]); EOF later is a protocol error. *)
let really_read fd len : Bytes.t option =
  let buf = ref (Bytes.create (min len read_chunk)) in
  let off = ref 0 in
  let eof = ref false in
  while (not !eof) && !off < len do
    if !off = Bytes.length !buf then (
      let grown = Bytes.create (min len (2 * !off)) in
      Bytes.blit !buf 0 grown 0 !off;
      buf := grown);
    let want = min read_chunk (Bytes.length !buf - !off) in
    match Unix.read fd !buf !off want with
    | 0 -> eof := true
    | n -> off := !off + n
  done;
  if !off = len then Some !buf
  else if !off = 0 then None
  else raise (Protocol_error "truncated frame")

let write_frame fd (payload : string) =
  let n = String.length payload in
  if n > max_frame then raise (Protocol_error "frame too large");
  let buf = Bytes.create (4 + n) in
  Bytes.set_int32_be buf 0 (Int32.of_int n);
  Bytes.blit_string payload 0 buf 4 n;
  really_write fd buf

let read_frame fd : string option =
  match really_read fd 4 with
  | None -> None
  | Some hdr ->
      let n = Int32.to_int (Bytes.get_int32_be hdr 0) in
      if n < 0 || n > max_frame then
        raise (Protocol_error (Printf.sprintf "bad frame length %d" n));
      (match really_read fd n with
      (* [body] is exactly [n] bytes and never escapes: no copy needed *)
      | Some body -> Some (Bytes.unsafe_to_string body)
      | None -> raise (Protocol_error "truncated frame"))

(* ---- values and tables ---- *)

let ty_to_string = function
  | Value.TBool -> "bool"
  | Value.TInt -> "int"
  | Value.TFloat -> "float"
  | Value.TStr -> "text"

let ty_of_string = function
  | "bool" -> Value.TBool
  | "int" -> Value.TInt
  | "float" -> Value.TFloat
  | "text" -> Value.TStr
  | s -> raise (Protocol_error ("unknown column type " ^ s))

(* floats as [%h] hex literals: exact bit-level round-trip, so rendering
   client-side reproduces the server's bytes *)
let value_to_json : Value.t -> Json.t = function
  | Value.Null -> Json.Null
  | Value.Bool b -> Json.Bool b
  | Value.Int i -> Json.Int i
  | Value.Str s -> Json.Str s
  | Value.Float f -> Json.Obj [ ("f", Json.Str (Printf.sprintf "%h" f)) ]

let value_of_json : Json.t -> Value.t = function
  | Json.Null -> Value.Null
  | Json.Bool b -> Value.Bool b
  | Json.Int i -> Value.Int i
  | Json.Str s -> Value.Str s
  | Json.Obj [ ("f", Json.Str h) ] -> (
      match float_of_string_opt h with
      | Some f -> Value.Float f
      | None -> raise (Protocol_error ("bad float literal " ^ h)))
  | Json.Float f -> Value.Float f  (* lenient: hand-written clients *)
  | _ -> raise (Protocol_error "bad value")

let table_to_json (t : Table.t) : Json.t =
  Json.Obj
    [
      ("kind", Json.Str "rows");
      ( "schema",
        Json.List
          (List.map
             (fun (a : Schema.attr) ->
               Json.List [ Json.Str a.name; Json.Str (ty_to_string a.ty) ])
             (Schema.attrs (Table.schema t))) );
      ( "rows",
        Json.List
          (Array.to_list
             (Array.map
                (fun row ->
                  Json.List
                    (List.map value_to_json
                       (Array.to_list (row : Tuple.t :> Value.t array))))
                (Table.rows t))) );
    ]

let table_of_json (j : Json.t) : Table.t =
  let attr = function
    | Json.List [ Json.Str name; Json.Str ty ] ->
        Schema.attr name (ty_of_string ty)
    | _ -> raise (Protocol_error "bad schema attribute")
  in
  let schema =
    match Json.member "schema" j with
    | Some (Json.List attrs) -> Schema.make (List.map attr attrs)
    | _ -> raise (Protocol_error "missing schema")
  in
  let row = function
    | Json.List vs ->
        Tuple.of_array (Array.of_list (List.map value_of_json vs))
    | _ -> raise (Protocol_error "bad row")
  in
  match Json.member "rows" j with
  | Some (Json.List rows) ->
      Table.of_array schema (Array.of_list (List.map row rows))
  | _ -> raise (Protocol_error "missing rows")

(* ---- requests ---- *)

type request = {
  id : int;
  stmt : string;
  deadline_ms : int option;
      (** time budget from receipt; expired requests are cancelled while
          queued and answered with [Deadline_exceeded] *)
  trace : bool;  (** attach the Tkr_obs execution trace to the response *)
  trace_id : string option;
      (** client-supplied correlation id, echoed on the response and
          stamped on every server-side event-log line for this request *)
}

let request ?(id = 0) ?deadline_ms ?(trace = false) ?trace_id stmt =
  { id; stmt; deadline_ms; trace; trace_id }

let request_to_json (r : request) : Json.t =
  Json.Obj
    (("id", Json.Int r.id) :: ("stmt", Json.Str r.stmt)
    :: ((match r.deadline_ms with
        | Some ms -> [ ("deadline_ms", Json.Int ms) ]
        | None -> [])
       @ (if r.trace then [ ("trace", Json.Bool true) ] else [])
       @ (match r.trace_id with
         | Some tid -> [ ("trace_id", Json.Str tid) ]
         | None -> [])))

let request_of_json (j : Json.t) : request =
  let stmt =
    match Option.bind (Json.member "stmt" j) Json.to_string_opt with
    | Some s -> s
    | None -> raise (Protocol_error "request without stmt")
  in
  {
    id =
      Option.value ~default:0
        (Option.bind (Json.member "id" j) Json.to_int_opt);
    stmt;
    deadline_ms = Option.bind (Json.member "deadline_ms" j) Json.to_int_opt;
    trace = (match Json.member "trace" j with Some (Json.Bool b) -> b | _ -> false);
    trace_id = Option.bind (Json.member "trace_id" j) Json.to_string_opt;
  }

(* ---- responses ---- *)

type error_code =
  | Parse_error  (** the statement does not lex/parse *)
  | Check_error  (** rejected by the static check phase *)
  | Runtime_error  (** semantic or execution failure *)
  | Server_busy  (** admission queue above high-water: back off and retry *)
  | Deadline_exceeded  (** cancelled while queued past its deadline *)
  | Server_shutdown  (** draining: no new work accepted *)
  | Session_limit  (** connection rejected: too many sessions *)
  | Protocol_violation  (** malformed frame or request *)

let error_code_to_string = function
  | Parse_error -> "PARSE_ERROR"
  | Check_error -> "CHECK_ERROR"
  | Runtime_error -> "RUNTIME_ERROR"
  | Server_busy -> "SERVER_BUSY"
  | Deadline_exceeded -> "DEADLINE_EXCEEDED"
  | Server_shutdown -> "SERVER_SHUTDOWN"
  | Session_limit -> "SESSION_LIMIT"
  | Protocol_violation -> "PROTOCOL_ERROR"

let error_code_of_string = function
  | "PARSE_ERROR" -> Parse_error
  | "CHECK_ERROR" -> Check_error
  | "RUNTIME_ERROR" -> Runtime_error
  | "SERVER_BUSY" -> Server_busy
  | "DEADLINE_EXCEEDED" -> Deadline_exceeded
  | "SERVER_SHUTDOWN" -> Server_shutdown
  | "SESSION_LIMIT" -> Session_limit
  | "PROTOCOL_ERROR" -> Protocol_violation
  | s -> raise (Protocol_error ("unknown error code " ^ s))

type error = { code : error_code; message : string }

type body = Rows of Table.t | Message of string

type response = {
  rsp_id : int;
  cached : bool;  (** served from the snapshot-aware result cache *)
  elapsed_us : int;  (** server-side queue wait + execution *)
  body : (body, error) result;
  rsp_trace : Json.t option;  (** execution trace when the request opted in *)
  rsp_trace_id : string option;
      (** the correlation id the server logged this request under:
          echoes the request's [trace_id], or a server-generated id when
          telemetry is on and the client sent none *)
}

(** The result payload as JSON text — this exact string is what the
    result cache stores, so cached responses are byte-identical. *)
let body_to_payload (b : body) : string =
  match b with
  | Rows t -> Json.to_string (table_to_json t)
  | Message s ->
      Json.to_string
        (Json.Obj [ ("kind", Json.Str "done"); ("message", Json.Str s) ])

let body_of_payload (payload : Json.t) : body =
  match Option.bind (Json.member "kind" payload) Json.to_string_opt with
  | Some "rows" -> Rows (table_of_json payload)
  | Some "done" -> (
      match Option.bind (Json.member "message" payload) Json.to_string_opt with
      | Some m -> Message m
      | None -> raise (Protocol_error "done without message"))
  | _ -> raise (Protocol_error "bad payload kind")

(* the payload travels pre-rendered (possibly straight from the cache):
   splice it into the envelope as-is.  [trace_id] is omitted entirely
   when [None], keeping frames byte-identical to a telemetry-free
   server for clients that never send one. *)
let ok_frame ~id ~cached ~elapsed_us ?trace ?trace_id (payload : string) :
    string =
  let buf = Buffer.create (String.length payload + 96) in
  Buffer.add_string buf
    (Printf.sprintf {|{"id":%d,"status":"ok","cached":%b,"elapsed_us":%d|} id
       cached elapsed_us);
  (match trace_id with
  | Some tid ->
      Buffer.add_string buf {|,"trace_id":|};
      Buffer.add_string buf (Json.to_string (Json.Str tid))
  | None -> ());
  (match trace with
  | Some t ->
      Buffer.add_string buf {|,"trace":|};
      Buffer.add_string buf (Json.to_string t)
  | None -> ());
  Buffer.add_string buf {|,"result":|};
  Buffer.add_string buf payload;
  Buffer.add_char buf '}';
  Buffer.contents buf

(* invert [ok_frame]: the payload is everything between the first
   result-key marker and the closing brace.  The marker's quotes are
   unescaped, and any quote inside a serialized JSON string (trace_id,
   trace) travels backslash-escaped, so the first occurrence is always
   the envelope's own key. *)
let ok_frame_payload (frame : string) : string option =
  let marker = {|,"result":|} in
  let mlen = String.length marker in
  let flen = String.length frame in
  let rec find i =
    if i + mlen > flen then None
    else if String.sub frame i mlen = marker then Some (i + mlen)
    else find (i + 1)
  in
  match find 0 with
  | Some start when flen > start && frame.[flen - 1] = '}' ->
      Some (String.sub frame start (flen - start - 1))
  | _ -> None

let error_frame ~id ?trace_id (e : error) : string =
  Json.to_string
    (Json.Obj
       ([
          ("id", Json.Int id);
          ("status", Json.Str "error");
          ("code", Json.Str (error_code_to_string e.code));
          ("message", Json.Str e.message);
        ]
       @ match trace_id with
         | Some tid -> [ ("trace_id", Json.Str tid) ]
         | None -> []))

let response_of_string (s : string) : response =
  let j = Json.of_string s in
  let rsp_id =
    Option.value ~default:0 (Option.bind (Json.member "id" j) Json.to_int_opt)
  in
  match Option.bind (Json.member "status" j) Json.to_string_opt with
  | Some "ok" ->
      let payload =
        match Json.member "result" j with
        | Some p -> p
        | None -> raise (Protocol_error "ok response without result")
      in
      {
        rsp_id;
        cached =
          (match Json.member "cached" j with Some (Json.Bool b) -> b | _ -> false);
        elapsed_us =
          Option.value ~default:0
            (Option.bind (Json.member "elapsed_us" j) Json.to_int_opt);
        body = Ok (body_of_payload payload);
        rsp_trace = Json.member "trace" j;
        rsp_trace_id = Option.bind (Json.member "trace_id" j) Json.to_string_opt;
      }
  | Some "error" ->
      let code =
        match Option.bind (Json.member "code" j) Json.to_string_opt with
        | Some c -> error_code_of_string c
        | None -> raise (Protocol_error "error response without code")
      in
      let message =
        Option.value ~default:""
          (Option.bind (Json.member "message" j) Json.to_string_opt)
      in
      {
        rsp_id;
        cached = false;
        elapsed_us = 0;
        body = Error { code; message };
        rsp_trace = None;
        rsp_trace_id = Option.bind (Json.member "trace_id" j) Json.to_string_opt;
      }
  | _ -> raise (Protocol_error "response without status")

(* ---- greeting ---- *)

let proto_version = 1

let greeting_frame ~session_id : string =
  Json.to_string
    (Json.Obj
       [
         ("server", Json.Str "tkr_serve");
         ("proto", Json.Int proto_version);
         ("session", Json.Int session_id);
       ])

(** [Ok session_id] on a greeting, [Error e] on a rejection frame. *)
let greeting_of_string (s : string) : (int, error) result =
  let j = Json.of_string s in
  match Json.member "session" j with
  | Some (Json.Int id) -> Ok id
  | _ -> (
      match Option.bind (Json.member "code" j) Json.to_string_opt with
      | Some c ->
          Error
            {
              code = error_code_of_string c;
              message =
                Option.value ~default:""
                  (Option.bind (Json.member "message" j) Json.to_string_opt);
            }
      | None -> raise (Protocol_error "bad greeting"))

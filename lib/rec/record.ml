(** The flight-recording format: one versioned JSONL document per
    capture.  See the interface for the schema and determinism
    argument. *)

module Json = Tkr_obs.Json
module Jsonl = Tkr_obs.Jsonl
module Clock = Tkr_obs.Clock

exception Format_error of string

let format_version = 1
let magic = "tkr-flight-recording"

(* ---- digests ---- *)

let digest (s : string) : string = Digest.to_hex (Digest.string s)

let digest_error ~code ~message : string = digest (code ^ "\x00" ^ message)

(* ---- header ---- *)

type header = {
  h_version : int;
  h_started_ms : int;  (** wall-clock ms when the capture began *)
  h_workload : string option;
      (** built-in catalog the server was started with, when known —
          replay rebuilds the same initial database from it *)
  h_source : string;  (** free-form producer tag, e.g. ["tkr_cli serve"] *)
}

let header ?workload ?(source = "tkr_rec") () =
  {
    h_version = format_version;
    h_started_ms = int_of_float (Unix.gettimeofday () *. 1000.);
    h_workload = workload;
    h_source = source;
  }

let header_to_json (h : header) : Json.t =
  Json.Obj
    ([
       ("rec", Json.Str magic);
       ("version", Json.Int h.h_version);
       ("started_ms", Json.Int h.h_started_ms);
       ("source", Json.Str h.h_source);
     ]
    @ match h.h_workload with
      | Some w -> [ ("workload", Json.Str w) ]
      | None -> [])

let jint j key =
  Option.value ~default:0 (Option.bind (Json.member key j) Json.to_int_opt)

let jstr j key =
  Option.value ~default:"" (Option.bind (Json.member key j) Json.to_string_opt)

let header_of_json (j : Json.t) : header =
  (match Json.member "rec" j with
  | Some (Json.Str m) when m = magic -> ()
  | _ -> raise (Format_error "not a tkr flight recording (bad magic)"));
  let v = jint j "version" in
  if v < 1 || v > format_version then
    raise
      (Format_error
         (Printf.sprintf "unsupported recording version %d (this build reads <= %d)"
            v format_version));
  {
    h_version = v;
    h_started_ms = jint j "started_ms";
    h_workload = Option.bind (Json.member "workload" j) Json.to_string_opt;
    h_source = jstr j "source";
  }

(* ---- entries ---- *)

type entry = {
  e_seq : int;
  e_session : int;
  e_req_id : int;
  e_trace_id : string option;
  e_stmt : string;
  e_deadline_ms : int option;
  e_arrive_ms : int;
  e_arrive_ns : int64;
  e_queue_us : int;
  e_exec_us : int;
  e_total_us : int;
  e_status : string;
  e_cached : bool;
  e_disposition : string;
  e_fp : string;
  e_epoch : int;
  e_deps : (string * int) list;
  e_rows_in : int;
  e_rows_out : int;
  e_gc_minor_w : int;
  e_gc_major_w : int;
  e_digest : string;
}

(* every field but [seq], which the log view writes in its envelope *)
let entry_fields (e : entry) : (string * Json.t) list =
  [ ("sid", Json.Int e.e_session); ("req", Json.Int e.e_req_id) ]
  @ (match e.e_trace_id with
    | Some tid -> [ ("trace_id", Json.Str tid) ]
    | None -> [])
  @ [ ("stmt", Json.Str e.e_stmt) ]
  @ (match e.e_deadline_ms with
    | Some ms -> [ ("deadline_ms", Json.Int ms) ]
    | None -> [])
  @ [
      ("arrive_ms", Json.Int e.e_arrive_ms);
      ("arrive_ns", Json.Int (Int64.to_int e.e_arrive_ns));
      ("queue_us", Json.Int e.e_queue_us);
      ("exec_us", Json.Int e.e_exec_us);
      ("total_us", Json.Int e.e_total_us);
      ("status", Json.Str e.e_status);
      ("cached", Json.Bool e.e_cached);
      ("disp", Json.Str e.e_disposition);
      ("fp", Json.Str e.e_fp);
      ("epoch", Json.Int e.e_epoch);
      ("deps", Json.Obj (List.map (fun (t, v) -> (t, Json.Int v)) e.e_deps));
      ("rows_in", Json.Int e.e_rows_in);
      ("rows_out", Json.Int e.e_rows_out);
      ("gc_minor_w", Json.Int e.e_gc_minor_w);
      ("gc_major_w", Json.Int e.e_gc_major_w);
      ("digest", Json.Str e.e_digest);
    ]

let entry_to_json (e : entry) : Json.t =
  Json.Obj (("seq", Json.Int e.e_seq) :: entry_fields e)

let entry_of_json (j : Json.t) : entry =
  let stmt =
    match Option.bind (Json.member "stmt" j) Json.to_string_opt with
    | Some s -> s
    | None -> raise (Format_error "record without stmt")
  in
  {
    e_seq = jint j "seq";
    e_session = jint j "sid";
    e_req_id = jint j "req";
    e_trace_id = Option.bind (Json.member "trace_id" j) Json.to_string_opt;
    e_stmt = stmt;
    e_deadline_ms = Option.bind (Json.member "deadline_ms" j) Json.to_int_opt;
    e_arrive_ms = jint j "arrive_ms";
    e_arrive_ns = Int64.of_int (jint j "arrive_ns");
    e_queue_us = jint j "queue_us";
    e_exec_us = jint j "exec_us";
    e_total_us = jint j "total_us";
    e_status = jstr j "status";
    e_cached =
      (match Json.member "cached" j with Some (Json.Bool b) -> b | _ -> false);
    e_disposition = jstr j "disp";
    e_fp = jstr j "fp";
    e_epoch = jint j "epoch";
    e_deps =
      (match Json.member "deps" j with
      | Some (Json.Obj fields) ->
          List.map
            (fun (t, v) ->
              match Json.to_int_opt v with
              | Some v -> (t, v)
              | None -> raise (Format_error "bad dependency version"))
            fields
      | _ -> []);
    e_rows_in = jint j "rows_in";
    e_rows_out = jint j "rows_out";
    e_gc_minor_w = jint j "gc_minor_w";
    e_gc_major_w = jint j "gc_major_w";
    e_digest = jstr j "digest";
  }

(* ---- the stream ---- *)

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
  | Drain of { reason : string }

(* an event's name, severity and own fields *)
let describe = function
  | Conn_open { sid } -> ("conn_open", "debug", [ ("sid", Json.Int sid) ])
  | Conn_close { sid } -> ("conn_close", "debug", [ ("sid", Json.Int sid) ])
  | Request_start { sid; req; trace_id; stmt } ->
      ( "request_start",
        "debug",
        [ ("sid", Json.Int sid); ("req", Json.Int req) ]
        @ (match trace_id with
          | Some tid -> [ ("trace_id", Json.Str tid) ]
          | None -> [])
        @ [ ("stmt", Json.Str stmt) ] )
  | Admission_reject { sid; reason } ->
      ( "admission_reject",
        "warn",
        [ ("sid", Json.Int sid); ("reason", Json.Str reason) ] )
  | Drain { reason } -> ("drain", "info", [ ("reason", Json.Str reason) ])

(* One JSONL view of the stream.  A view is on while its sink is not
   [Null]: a write error or {!close} sets it to [Null] for good. *)
type view = {
  mutable sink : Jsonl.sink;
  mutable lines : int;
  mutable error : string option;  (* the write error that stopped it *)
}

type t = {
  lock : Mutex.t;
  clock : Clock.t;
  wall : unit -> float;
  seq : int Atomic.t;  (* the stream's one order: arrivals and events *)
  log : view;
  record : view;
  (* the log view's rate limit: a window per second of [clock] *)
  mutable window_start : int64;
  mutable window_count : int;
  mutable window_dropped : int;
  mutable dropped : int;
}

let rate_limit = 5_000

let make ~clock ~wall log record =
  let view sink = { sink; lines = 0; error = None } in
  {
    lock = Mutex.create ();
    clock;
    wall;
    seq = Atomic.make 0;
    log = view log;
    record = view record;
    window_start = clock ();
    window_count = 0;
    window_dropped = 0;
    dropped = 0;
  }

let disabled =
  make ~clock:Clock.frozen ~wall:Unix.gettimeofday Jsonl.Null Jsonl.Null

let create ?(clock = Clock.monotonic) ?(wall = Unix.gettimeofday)
    ?(log = Jsonl.Null) ?(record = Jsonl.Null) ?(header = header ()) () =
  match (log, record) with
  | Jsonl.Null, Jsonl.Null -> disabled
  | _ ->
      Jsonl.write record (header_to_json header);
      make ~clock ~wall log record

let logging t = t.log.sink != Jsonl.Null
let recording t = t.record.sink != Jsonl.Null
let next_seq t = Atomic.fetch_and_add t.seq 1

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* A sink that fails stops its view and keeps the error: nothing a view
   writes can raise into the server's threads. *)
let put v line =
  if v.sink != Jsonl.Null then
    match Jsonl.write v.sink line with
    | () -> v.lines <- v.lines + 1
    | exception exn ->
        v.sink <- Jsonl.Null;
        v.error <- Some (Printexc.to_string exn)

(* one log line under the rate limit; a window that rolls over first
   announces what the full one dropped.  A line without a [seq] (every
   kind but [request_finish]) takes the stream's next one.  The caller
   holds the lock. *)
let log_line t ?seq ~severity ~event fields =
  let now = t.clock () in
  let line ~seq ~severity ~event fields =
    Json.Obj
      (* integer milliseconds: exact in JSON, unlike a float epoch *)
      (("ts_ms", Json.Int (int_of_float (t.wall () *. 1000.)))
      :: ("mono_ns", Json.Int (Int64.to_int now))
      :: ("seq", Json.Int seq)
      :: ("severity", Json.Str severity)
      :: ("event", Json.Str event)
      :: fields)
  in
  if Int64.sub now t.window_start >= 1_000_000_000L then begin
    if t.window_dropped > 0 then
      put t.log
        (line ~seq:(next_seq t) ~severity:"warn" ~event:"rate_limited"
           [ ("dropped", Json.Int t.window_dropped) ]);
    t.window_start <- now;
    t.window_count <- 0;
    t.window_dropped <- 0
  end;
  if t.window_count >= rate_limit then begin
    t.window_dropped <- t.window_dropped + 1;
    t.dropped <- t.dropped + 1
  end
  else begin
    t.window_count <- t.window_count + 1;
    let seq = match seq with Some s -> s | None -> next_seq t in
    put t.log (line ~seq ~severity ~event fields)
  end

let write t (e : entry) =
  if logging t || recording t then
    locked t @@ fun () ->
    let fields = entry_fields e in
    put t.record (Json.Obj (("seq", Json.Int e.e_seq) :: fields));
    if logging t then
      log_line t ~seq:e.e_seq
        ~severity:(if e.e_status = "ok" then "info" else "error")
        ~event:"request_finish" fields

let emit t ev =
  if logging t then
    locked t @@ fun () ->
    if logging t then
      let event, severity, fields = describe ev in
      log_line t ~severity ~event fields

let recorded t = locked t (fun () -> t.record.lines)
let dropped t = locked t (fun () -> t.dropped)

let stopped t =
  locked t @@ fun () ->
  List.filter_map
    (fun (name, v) -> Option.map (fun err -> (name, err)) v.error)
    [ ("log", t.log); ("record", t.record) ]

let close t =
  if t != disabled then
    locked t @@ fun () ->
    List.iter
      (fun v ->
        Jsonl.flush v.sink;
        v.sink <- Jsonl.Null)
      [ t.log; t.record ]

(* ---- reading ---- *)

let read_channel ic : header * entry list =
  let header =
    match input_line ic with
    | line -> header_of_json (Json.of_string line)
    | exception End_of_file -> raise (Format_error "empty recording")
  in
  let entries = ref [] in
  (try
     while true do
       let line = input_line ic in
       if String.trim line <> "" then
         entries := entry_of_json (Json.of_string line) :: !entries
     done
   with End_of_file -> ());
  (* entries are written at finish time, so the file is in completion
     order; arrival order is the [seq] stamped at admission *)
  let sorted =
    List.sort (fun a b -> compare a.e_seq b.e_seq) (List.rev !entries)
  in
  (header, sorted)

let read_file path : header * entry list =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read_channel ic)

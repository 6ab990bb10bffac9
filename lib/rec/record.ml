(** The flight-recording format: one versioned JSONL document per
    capture.  See the interface for the schema and determinism
    argument. *)

module Json = Tkr_obs.Json
module Jsonl = Tkr_obs.Jsonl

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

let entry_to_json (e : entry) : Json.t =
  Json.Obj
    ([ ("seq", Json.Int e.e_seq); ("sid", Json.Int e.e_session);
       ("req", Json.Int e.e_req_id) ]
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
      ])

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

(* ---- recorder ---- *)

type t = {
  sink : Jsonl.sink;
  lock : Mutex.t;
  mutable live : bool;
  mutable count : int;
}

let disabled =
  { sink = Jsonl.Null; lock = Mutex.create (); live = false; count = 0 }

let enabled t = t != disabled && t.live && t.sink != Jsonl.Null

let locked mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let create ?(header = header ()) sink =
  Jsonl.write sink (header_to_json header);
  { sink; lock = Mutex.create (); live = true; count = 0 }

let write t (e : entry) =
  if enabled t then
    locked t.lock @@ fun () ->
    if t.live then begin
      t.count <- t.count + 1;
      Jsonl.write t.sink (entry_to_json e)
    end

let recorded t = locked t.lock (fun () -> t.count)

let close t =
  if t != disabled then
    locked t.lock @@ fun () ->
    if t.live then begin
      t.live <- false;
      Jsonl.flush t.sink
    end

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

(** The Tkr_serve TCP query server: accept loop, one thread per
    connection running its own requests through the admission gate,
    snapshot-aware result cache, live telemetry.  See the interface for
    the architecture overview. *)

module Middleware = Tkr_middleware.Middleware
module Database = Tkr_engine.Database
module Table = Tkr_engine.Table
module Ast = Tkr_sql.Ast
module Diagnostic = Tkr_check.Diagnostic
module Trace = Tkr_obs.Trace
module Clock = Tkr_obs.Clock
module Json = Tkr_obs.Json
module Metrics = Tkr_obs.Metrics
module Openmetrics = Tkr_obs.Openmetrics
module Tel = Tkr_tel.Tel
module Record = Tkr_rec.Record
module Ledger = Tkr_rec.Ledger
open Tkr_relation

type config = {
  host : string;
  port : int;
  max_sessions : int;
  queue_depth : int;
  cache_mb : int;
  workers : int;
  slow_ms : int;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 7643;
    max_sessions = 64;
    queue_depth = 128;
    cache_mb = 64;
    workers = 8;
    slow_ms = 500;
  }

type job = {
  j_sess : Session.session;
  j_req : Wire.request;
  j_enq_ns : int64;
  j_seq : int;  (* global arrival order, stamped when the frame is read *)
  j_arrive_ms : int;  (* wall-clock arrival, for the flight recorder *)
  j_trace : string option;
      (* the request's correlation id: the client's trace_id, or a
         server-generated one when telemetry is on (None when off — the
         response then carries no trace_id field at all) *)
}

type t = {
  cfg : config;
  mw : Middleware.t;
  cache : Cache.t;
  sessions : Session.manager;
  gate : Admission.t;
  listen_fd : Unix.file_descr;
  bound_port : int;
  stop_flag : bool Atomic.t;
  conns : (int, Unix.file_descr) Hashtbl.t;  (* live connections by session id *)
  conns_lock : Mutex.t;
  mutable accept_thread : Thread.t option;
  mutable conn_threads : Thread.t list;
  (* telemetry *)
  tel : Tel.t;
  trace_seq : int Atomic.t;  (* server-generated trace-id counter *)
  start_ns : int64;
  env : Tkr_perf.Env.t;  (* build info for the METRICS exposition *)
  (* flight recorder (disabled unless [serve --record]) and the
     per-fingerprint resource ledger (always on: it also backs the
     slow-query view in STATS and [tkr_cli top]) *)
  recorder : Record.t;
  ledger : Ledger.t;
  arrive_seq : int Atomic.t;  (* stamps [j_seq] *)
  (* server metrics, registered in the middleware's registry so one
     OpenMetrics export covers engine and server *)
  m_requests : Metrics.counter;
  m_busy : Metrics.counter;
  m_deadline : Metrics.counter;
  m_errors : Metrics.counter;
  m_latency : Metrics.histogram;
}

let locked mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let port t = t.bound_port
let config t = t.cfg
let cache_stats t = Cache.stats t.cache
let stopping t = Atomic.get t.stop_flag
let telemetry t = t.tel
let recorder t = t.recorder
let ledger t = t.ledger

let uptime_s srv =
  Int64.to_int (Int64.div (Int64.sub (Clock.now_ns ()) srv.start_ns) 1_000_000_000L)

(* ---- replies ---- *)

let send_raw fd frame =
  (* the peer may be gone; a failed reply must not kill the thread *)
  try Wire.write_frame fd frame
  with Unix.Unix_error _ | Wire.Protocol_error _ -> ()

let send_error srv fd ~id ?trace_id code message =
  Metrics.incr srv.m_errors;
  send_raw fd (Wire.error_frame ~id ?trace_id { Wire.code; message })

(* ---- query execution ---- *)

let trace_json obs =
  match Trace.roots obs with
  | [] -> None
  | roots -> Some (Json.List (List.map Trace.to_json_value roots))

(* a finished request's reply: the result payload (with the execution
   trace, when one was asked for) or a typed error *)
type reply = (string * Json.t option, Wire.error) result

let us_between t0 t1 = Int64.to_int (Int64.div (Int64.sub t1 t0) 1000L)

(* The request's one record.  Every exit path of a job (query, bypass
   statement, typed error, queued deadline) stamps it here once the
   reply is ready; the response frame and every observer read from it.
   [exec_ns] and [gc0] mark the job's execution start. *)
let record srv (j : job) ~exec_ns ~gc0:(minor0, major0) ~fp ~epoch ~deps
    ~rows_in ~disposition ~rows_out (reply : reply) : reply * Record.entry =
  let total_us = us_between j.j_enq_ns (Clock.now_ns ()) in
  let queue_us = us_between j.j_enq_ns exec_ns in
  let minor1, major1 = Trace.alloc_words () in
  (* digesting the response costs an MD5 over the payload: only when the
     flight recorder will consume it *)
  let digest = Record.enabled srv.recorder in
  let status, e_digest =
    match reply with
    | Ok (payload, _) -> ("ok", if digest then Record.digest payload else "")
    | Error { Wire.code; message } ->
        let code = Wire.error_code_to_string code in
        (code, if digest then Record.digest_error ~code ~message else "")
  in
  ( reply,
    {
      Record.e_seq = j.j_seq;
      e_session = Session.id j.j_sess;
      e_req_id = j.j_req.Wire.id;
      e_trace_id = j.j_trace;
      e_stmt = j.j_req.Wire.stmt;
      e_deadline_ms = j.j_req.Wire.deadline_ms;
      e_arrive_ms = j.j_arrive_ms;
      e_arrive_ns = j.j_enq_ns;
      e_queue_us = queue_us;
      e_exec_us = max 0 (total_us - queue_us);
      e_total_us = total_us;
      e_status = status;
      e_cached = disposition = "hit";
      e_disposition = disposition;
      e_fp = fp;
      e_epoch = epoch;
      e_deps = deps;
      e_rows_in = rows_in;
      e_rows_out = rows_out;
      e_gc_minor_w = int_of_float (minor1 -. minor0);
      e_gc_major_w = int_of_float (major1 -. major0);
      e_digest;
    } )

(* Run one plain query with the cache.  The request pins one catalog
   value and prepares, reads versions, executes and fills the cache
   against it, so the versions observed here are the versions the result
   was computed from, and the ones [record] keeps.  A write meanwhile
   publishes a new value without waiting. *)
let run_query srv (j : job) stmt record : reply * Record.entry =
  let req = j.j_req in
  let mw = Middleware.pin srv.mw in
  let { Session.prepared = p; key; fp } =
    Session.prepared j.j_sess mw req.Wire.stmt stmt
  in
  let db = Middleware.database mw in
  let deps =
    List.map (fun tb -> (tb, Database.version db tb)) p.Middleware.tables
  in
  let rows_in =
    List.fold_left
      (fun acc tb -> acc + Table.cardinality (Database.find db tb))
      0 p.Middleware.tables
  in
  let record = record ~fp ~epoch:(Middleware.epoch mw) ~deps ~rows_in in
  let tel = srv.tel in
  let execute_fresh disposition =
    let obs = if req.Wire.trace then Trace.create () else Trace.disabled in
    let tbl =
      (* tie the execution trace to the request's correlation id: the
         extra root span only appears when the response carries a
         trace_id, so trace output without one is unchanged *)
      match j.j_trace with
      | Some tid when req.Wire.trace ->
          Trace.with_span obs "request" (fun sp ->
              Trace.set_str sp "trace_id" tid;
              Middleware.run_prepared ~obs mw p)
      | _ -> Middleware.run_prepared ~obs mw p
    in
    let rows_out = Table.cardinality tbl in
    let payload = Wire.body_to_payload (Wire.Rows tbl) in
    let evicted = Cache.add srv.cache ~rows:rows_out ~key ~deps payload in
    if evicted > 0 && Tel.enabled tel then
      Tel.emit tel (Tel.Cache_evict { count = evicted });
    record ~disposition ~rows_out (Ok (payload, trace_json obs))
  in
  if not (Cache.enabled srv.cache) then execute_fresh "off"
  else
    match Cache.lookup srv.cache ~key ~deps with
    | Cache.Hit (payload, rows) ->
        if Tel.enabled tel then Tel.emit tel (Tel.Cache_hit { fingerprint = fp });
        record ~disposition:"hit" ~rows_out:rows (Ok (payload, None))
    | Cache.Miss ->
        if Tel.enabled tel then
          Tel.emit tel (Tel.Cache_miss { fingerprint = fp });
        execute_fresh "miss"
    | Cache.Stale changed ->
        if Tel.enabled tel then begin
          List.iter
            (fun (table, version) ->
              Tel.emit tel (Tel.Invalidation { table; version }))
            changed;
          Tel.emit tel (Tel.Cache_miss { fingerprint = fp })
        end;
        execute_fresh "miss"

(* DDL/DML and the meta statements (EXPLAIN, CHECK) bypass the cache;
   execute_statement pins a query's catalog value, or serializes a
   write, itself *)
let run_statement srv ~parse_ns stmt : string * int =
  match Middleware.execute_statement ~parse_ns:(Some parse_ns) srv.mw stmt with
  | Middleware.Rows tbl ->
      (Wire.body_to_payload (Wire.Rows tbl), Table.cardinality tbl)
  | Middleware.Done msg -> (Wire.body_to_payload (Wire.Message msg), 0)

(* Feed one finished request's record to every observer: the serve
   counters and latency histogram, the resource ledger, the flight
   recorder and the event log.  Cache traffic is the cache's own count
   ({!Cache.stats}), read at scrape time. *)
let observe srv (e : Record.entry) =
  Metrics.incr srv.m_requests;
  Metrics.observe srv.m_latency e.e_total_us;
  (match e.e_status with
  | "ok" -> ()
  | "DEADLINE_EXCEEDED" -> Metrics.incr srv.m_deadline
  | _ -> Metrics.incr srv.m_errors);
  Ledger.observe srv.ledger e;
  Record.write srv.recorder e;
  let tel = srv.tel in
  if Tel.enabled tel then begin
    (match e.e_trace_id with
    | Some trace_id ->
        Tel.emit tel
          (Tel.Request_finish
             { session = e.e_session; req_id = e.e_req_id; trace_id;
               status = e.e_status; cached = e.e_cached;
               elapsed_us = e.e_total_us })
    | None -> ());
    if e.e_total_us >= srv.cfg.slow_ms * 1000 then
      Tel.emit tel
        (Tel.Slow_query
           { trace_id = Option.value ~default:"" e.e_trace_id;
             fingerprint = e.e_fp; stmt = e.e_stmt; queue_us = e.e_queue_us;
             exec_us = e.e_exec_us; total_us = e.e_total_us;
             disposition = e.e_disposition })
  end

(* ---- execution ---- *)

(* Execute one request: the caller holds an admission slot.  The reply
   is returned, not written, so the slot is given back before a client
   that stops reading can block the write. *)
let execute srv (job : job) : reply * Record.entry =
  let req = job.j_req in
  let exec_ns = Clock.now_ns () in
  (* allocation attribution: words this domain allocates while the job
     runs.  Execution is serial, so the job's operators all allocate
     here.  The counts are domain-local; [Gc.quick_stat]'s minor count
     only advances at minor collections. *)
  let gc0 = Trace.alloc_words () in
  (if Tel.enabled srv.tel then
     match job.j_trace with
     | Some trace_id ->
         Tel.emit srv.tel
           (Tel.Request_start
              { session = Session.id job.j_sess; req_id = req.Wire.id;
                trace_id; stmt = req.Wire.stmt })
     | None -> ());
  let record = record srv job ~exec_ns ~gc0 in
  (* bypass statements and errors pin no plan: their fingerprint is the
     statement's and they depend on no table version *)
  let unplanned ~disposition ~rows_out reply =
    record ~fp:(Session.fingerprint req.Wire.stmt)
      ~epoch:(Middleware.epoch srv.mw) ~deps:[] ~rows_in:0 ~disposition
      ~rows_out reply
  in
  let fail code message =
    unplanned ~disposition:"error" ~rows_out:0 (Error { Wire.code; message })
  in
  match req.Wire.deadline_ms with
  | Some budget_ms when us_between job.j_enq_ns exec_ns >= budget_ms * 1000 ->
      fail Wire.Deadline_exceeded
        (Printf.sprintf "deadline of %d ms exceeded in queue" budget_ms)
  | _ -> (
      (* plain queries go through the session's prepared table and the
         cache; EXPLAIN/CHECK/DDL/DML take the execute_statement path *)
      try
        match Middleware.parse_statement srv.mw req.Wire.stmt with
        | _, (Ast.Query _ as stmt) -> run_query srv job stmt record
        | parse_ns, stmt ->
            let payload, rows_out = run_statement srv ~parse_ns stmt in
            unplanned ~disposition:"bypass" ~rows_out (Ok (payload, None))
      with
      | Tkr_sql.Parser.Error d | Tkr_sql.Lexer.Error d ->
          fail Wire.Parse_error (Diagnostic.to_string d)
      | Middleware.Rejected diags ->
          fail Wire.Check_error (Diagnostic.report_to_text diags)
      | Middleware.Error d | Tkr_sql.Analyzer.Error d ->
          fail Wire.Runtime_error (Diagnostic.to_string d)
      | Schema.Unknown name -> fail Wire.Runtime_error ("unknown name " ^ name)
      | exn -> fail Wire.Runtime_error (Printexc.to_string exn))

(* ---- scrape surface: STATS / METRICS / HEALTH ---- *)

let build_info_family srv : string =
  let e = srv.env in
  Openmetrics.gauge ~help:"build and runtime environment" "tkr_build_info"
    [
      ( [
          ("git_sha", e.Tkr_perf.Env.git_sha
                      ^ if e.Tkr_perf.Env.dirty then "+dirty" else "");
          ("ocaml_version", e.Tkr_perf.Env.ocaml_version);
          ("os_type", e.Tkr_perf.Env.os_type);
        ],
        1.0 );
    ]

(* counts owned outside the metrics registry, rendered from their owners
   at scrape time: the result cache's traffic, the sessions' plan
   outcomes and the event log's drops *)
let owned_counters srv : string list =
  let cs = Cache.stats srv.cache in
  [
    Openmetrics.counter "serve_cache_hits" cs.Cache.hits;
    Openmetrics.counter "serve_cache_misses" cs.Cache.misses;
    Openmetrics.counter "serve_cache_evictions" cs.Cache.evictions;
    Openmetrics.counters "serve_plans"
      (List.map
         (fun (outcome, n) -> ([ ("outcome", outcome) ], n))
         (Session.outcomes srv.sessions));
  ]
  @
  if Tel.enabled srv.tel then
    [ Openmetrics.counter "tkr_tel_events_dropped" (Tel.dropped srv.tel) ]
  else []

(* live levels, read from their owners at scrape time: admission,
   sessions, the result cache, the clock and the index activity
   ({!Tkr_idx.Stats}) *)
let owned_gauges srv : string list =
  let cs = Cache.stats srv.cache and i = Tkr_idx.Stats.snapshot () in
  List.map
    (fun (name, v) -> Openmetrics.gauge name [ ([], float_of_int v) ])
    [
      ("serve_queue_depth", Admission.waiting srv.gate);
      ("serve_inflight_requests", Admission.held srv.gate);
      ("serve_sessions", Session.active srv.sessions);
      ("serve_cache_entries", cs.Cache.entries);
      ("serve_cache_bytes", cs.Cache.bytes);
      ("uptime_seconds", uptime_s srv);
      ("tkr_idx_built", i.Tkr_idx.Stats.s_built);
      ("tkr_idx_rebuilds", i.Tkr_idx.Stats.s_rebuilds);
      ("tkr_idx_probes", i.Tkr_idx.Stats.s_probes);
      ("tkr_idx_candidates", i.Tkr_idx.Stats.s_candidates);
    ]

let metrics_text srv : string =
  Openmetrics.of_metrics
    ~extra:
      ((build_info_family srv :: owned_gauges srv)
      @ owned_counters srv @ Ledger.openmetrics srv.ledger)
    (Middleware.metrics srv.mw)

let health_json srv : Json.t =
  Json.Obj
    [
      ( "status",
        Json.Str (if Atomic.get srv.stop_flag then "draining" else "ready") );
      ("uptime_s", Json.Int (uptime_s srv));
      ("sessions", Json.Int (Session.active srv.sessions));
      ("queue_depth", Json.Int (Admission.waiting srv.gate));
      ("inflight", Json.Int (Admission.held srv.gate));
    ]

let stats_json srv : Json.t =
  let i = Tkr_idx.Stats.snapshot () in
  let q p = Metrics.histogram_quantile srv.m_latency p in
  Json.Obj
    [
      ("uptime_s", Json.Int (uptime_s srv));
      ("requests", Json.Int (Metrics.value srv.m_requests));
      ("errors", Json.Int (Metrics.value srv.m_errors));
      ("busy", Json.Int (Metrics.value srv.m_busy));
      ("deadline_exceeded", Json.Int (Metrics.value srv.m_deadline));
      ("sessions", Json.Int (Session.active srv.sessions));
      ("queue_depth", Json.Int (Admission.waiting srv.gate));
      ("inflight", Json.Int (Admission.held srv.gate));
      ( "latency_us",
        Json.Obj
          [
            ("count", Json.Int (Metrics.histogram_observations srv.m_latency));
            ("p50", Json.Int (q 0.50));
            ("p95", Json.Int (q 0.95));
            ("p99", Json.Int (q 0.99));
          ] );
      ( "index",
        Json.Obj
          [
            ("enabled", Json.Bool (Middleware.index_enabled srv.mw));
            ("built", Json.Int i.Tkr_idx.Stats.s_built);
            ("rebuilds", Json.Int i.Tkr_idx.Stats.s_rebuilds);
            ("probes", Json.Int i.Tkr_idx.Stats.s_probes);
            ("candidates", Json.Int i.Tkr_idx.Stats.s_candidates);
          ] );
      ("cache", Cache.stats_json srv.cache);
      ( "plans",
        Json.Obj
          (List.map
             (fun (outcome, n) -> (outcome, Json.Int n))
             (Session.outcomes srv.sessions)) );
      ( "slowest",
        (* derived from the resource ledger, worst single execution
           first; same shape as the pre-ledger slow-query table *)
        Json.List
          (Ledger.rows srv.ledger
          |> List.sort (fun a b ->
                 compare b.Ledger.r_max_us a.Ledger.r_max_us)
          |> List.filteri (fun i _ -> i < 5)
          |> List.map (fun (r : Ledger.row) ->
                 Json.Obj
                   [
                     ("fingerprint", Json.Str r.Ledger.r_fp);
                     ("count", Json.Int r.Ledger.r_count);
                     ("max_us", Json.Int r.Ledger.r_max_us);
                     ("total_us", Json.Int r.Ledger.r_total_us);
                     ("stmt", Json.Str r.Ledger.r_stmt);
                   ])) );
    ]

(* the scrape commands answer on the connection's thread without a slot:
   they stay responsive while every slot is held and HEALTH keeps
   answering (as "draining") during a drain, when the gate admits
   nothing *)
let scrape srv (req : Wire.request) : string option =
  match String.uppercase_ascii (String.trim req.Wire.stmt) with
  | "STATS" -> Some (Json.to_string (stats_json srv))
  | "METRICS" -> Some (metrics_text srv)
  | "HEALTH" -> Some (Json.to_string (health_json srv))
  | "LEDGER" -> Some (Json.to_string (Ledger.to_json ~top:50 srv.ledger))
  | _ -> None

(* ---- connection threads ---- *)

(* One request of the connection: take a slot, execute, give the slot
   back, then write the reply and feed the observers.  The connection's
   thread reads its next frame only after this returns, so a session's
   requests execute one at a time in arrival order and replies leave in
   request order. *)
let serve srv fd sess (req : Wire.request) =
  let sid = Session.id sess in
  let j_trace =
    match req.Wire.trace_id with
    | Some _ as tid -> tid
    | None ->
        if Tel.enabled srv.tel then
          Some (Printf.sprintf "t%d-%d" sid (Atomic.fetch_and_add srv.trace_seq 1))
        else None
  in
  let job =
    { j_sess = sess; j_req = req;
      j_enq_ns = Clock.now_ns ();
      j_seq = Atomic.fetch_and_add srv.arrive_seq 1;
      j_arrive_ms =
        (if Record.enabled srv.recorder then
           int_of_float (Unix.gettimeofday () *. 1000.)
         else 0);
      j_trace }
  in
  let reject reason code message =
    if Tel.enabled srv.tel then
      Tel.emit srv.tel (Tel.Admission_reject { session = sid; reason });
    send_error srv fd ~id:req.Wire.id ?trace_id:req.Wire.trace_id code message
  in
  match Admission.acquire srv.gate with
  | `Granted ->
      let reply, e =
        Fun.protect
          ~finally:(fun () -> Admission.release srv.gate)
          (fun () -> execute srv job)
      in
      let id = req.Wire.id in
      send_raw fd
        (match reply with
        | Ok (payload, trace) ->
            Wire.ok_frame ~id ~cached:e.Record.e_cached
              ~elapsed_us:e.Record.e_total_us ?trace ?trace_id:j_trace payload
        | Error err -> Wire.error_frame ~id ?trace_id:j_trace err);
      observe srv e
  | `Busy ->
      Metrics.incr srv.m_busy;
      reject "busy" Wire.Server_busy "admission queue full, retry later"
  | `Draining -> reject "draining" Wire.Server_shutdown "server is draining"

let conn_loop srv fd sess () =
  let sid = Session.id sess in
  let finally () =
    Session.close srv.sessions sess;
    if Tel.enabled srv.tel then
      Tel.emit srv.tel (Tel.Conn_close { session = sid });
    (* deregister and prune this thread from the server's bookkeeping so
       a long-running server doesn't accumulate a Thread.t per connection
       ever accepted; the accept loop inserts the thread into
       [conn_threads] under [conns_lock] before releasing it, so the
       filter below can never run before the insertion *)
    let self = Thread.id (Thread.self ()) in
    locked srv.conns_lock (fun () ->
        Hashtbl.remove srv.conns sid;
        srv.conn_threads <-
          List.filter (fun th -> Thread.id th <> self) srv.conn_threads);
    (try Unix.close fd with Unix.Unix_error _ -> ())
  in
  Fun.protect ~finally @@ fun () ->
  if Tel.enabled srv.tel then Tel.emit srv.tel (Tel.Conn_open { session = sid });
  send_raw fd (Wire.greeting_frame ~session_id:sid);
  let rec loop () =
    match Wire.read_frame fd with
    | None -> ()  (* clean close *)
    | Some frame ->
        (match Wire.request_of_json (Json.of_string frame) with
        | req -> (
            match scrape srv req with
            | Some payload ->
                send_raw fd
                  (Wire.ok_frame ~id:req.Wire.id ~cached:false ~elapsed_us:0
                     ?trace_id:req.Wire.trace_id
                     (Wire.body_to_payload (Wire.Message payload)))
            | None -> serve srv fd sess req)
        | exception (Wire.Protocol_error msg | Json.Parse_error msg) ->
            send_error srv fd ~id:0 Wire.Protocol_violation msg);
        loop ()
  in
  try loop () with
  | Wire.Protocol_error _ -> ()  (* torn frame: drop the connection *)
  | Unix.Unix_error _ -> ()

(* ---- accept loop ---- *)

let accept_loop srv () =
  (* select with a timeout so the loop notices [stop] promptly without a
     wakeup pipe; the listen socket stays blocking for the accept itself *)
  let rec loop () =
    if not (Atomic.get srv.stop_flag) then begin
      (match Unix.select [ srv.listen_fd ] [] [] 0.1 with
      | [ _ ], _, _ when not (Atomic.get srv.stop_flag) -> (
          match Unix.accept ~cloexec:true srv.listen_fd with
          | exception Unix.Unix_error _ -> ()
          | fd, _peer -> (
              (try Unix.setsockopt fd Unix.TCP_NODELAY true
               with Unix.Unix_error _ -> ());
              match Session.open_session srv.sessions with
              | None ->
                  if Tel.enabled srv.tel then
                    Tel.emit srv.tel
                      (Tel.Admission_reject
                         { session = 0; reason = "session_limit" });
                  send_raw fd
                    (Wire.error_frame ~id:0
                       {
                         Wire.code = Wire.Session_limit;
                         message =
                           Printf.sprintf "session limit of %d reached"
                             srv.cfg.max_sessions;
                       });
                  (try Unix.close fd with Unix.Unix_error _ -> ())
              | Some sess ->
                  locked srv.conns_lock (fun () ->
                      Hashtbl.replace srv.conns (Session.id sess) fd;
                      srv.conn_threads <-
                        Thread.create (conn_loop srv fd sess) ()
                        :: srv.conn_threads)))
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error _ ->
          (* EBADF in a stop race, EMFILE pressure, ...: the accept loop
             must survive — back off briefly (a persistent error would
             otherwise spin hot) and re-check [stop_flag] *)
          Thread.delay 0.05);
      loop ()
    end
  in
  loop ()

(* ---- lifecycle ---- *)

let start ?(config = default_config) ?(tel = Tel.disabled)
    ?(recorder = Record.disabled) mw =
  (* a peer that hangs up before its reply is written must cost a failed
     write, not the process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let listen_fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
     Unix.bind listen_fd
       (Unix.ADDR_INET (Unix.inet_addr_of_string config.host, config.port));
     Unix.listen listen_fd 64
   with e ->
     (try Unix.close listen_fd with Unix.Unix_error _ -> ());
     raise e);
  let bound_port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> config.port
  in
  let reg = Middleware.metrics mw in
  let srv =
    {
      cfg = config;
      mw;
      cache = Cache.create ~max_bytes:(config.cache_mb * 1024 * 1024);
      sessions = Session.manager ~max_sessions:config.max_sessions;
      gate = Admission.create ~slots:config.workers ~depth:config.queue_depth;
      listen_fd;
      bound_port;
      stop_flag = Atomic.make false;
      conns = Hashtbl.create 64;
      conns_lock = Mutex.create ();
      accept_thread = None;
      conn_threads = [];
      tel;
      trace_seq = Atomic.make 1;
      start_ns = Clock.now_ns ();
      env = Tkr_perf.Env.capture ();
      recorder;
      ledger = Ledger.create ();
      arrive_seq = Atomic.make 0;
      (* counters export with the [_total] suffix added *)
      m_requests = Metrics.counter reg "serve_requests";
      m_busy = Metrics.counter reg "serve_busy";
      m_deadline = Metrics.counter reg "serve_deadline_exceeded";
      m_errors = Metrics.counter reg "serve_errors";
      m_latency = Metrics.histogram reg "serve_latency_us";
    }
  in
  if Tel.enabled tel then
    Middleware.set_epoch_hook mw
      (Some (fun epoch -> Tel.emit tel (Tel.Epoch_bump { epoch })));
  srv.accept_thread <- Some (Thread.create (accept_loop srv) ());
  srv

let stop ?(reason = "stop") srv =
  if Atomic.compare_and_set srv.stop_flag false true then begin
    if Tel.enabled srv.tel then Tel.emit srv.tel (Tel.Drain { reason });
    (* 1. stop accepting connections *)
    (match srv.accept_thread with Some th -> Thread.join th | None -> ());
    (try Unix.close srv.listen_fd with Unix.Unix_error _ -> ());
    (* 2. drain: no new requests; what holds or awaits a slot finishes *)
    Admission.drain srv.gate;
    Admission.await_idle srv.gate;
    (* 3. wake blocked readers (EOF) and writers (EPIPE), join the
       connection threads.  A thread deregisters under [conns_lock]
       before it closes its socket, so every fd shut here is open. *)
    let threads =
      locked srv.conns_lock (fun () ->
          Hashtbl.iter
            (fun _ fd ->
              try Unix.shutdown fd Unix.SHUTDOWN_ALL
              with Unix.Unix_error _ -> ())
            srv.conns;
          srv.conn_threads)
    in
    List.iter Thread.join threads;
    (* the middleware outlives the server: detach the epoch observer so
       later DDL doesn't write into a log the caller may close *)
    if Tel.enabled srv.tel then Middleware.set_epoch_hook srv.mw None
  end

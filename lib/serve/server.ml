(** The Tkr_serve TCP query server: accept loop, per-connection reader
    threads, worker threads draining the admission queue, snapshot-aware
    result cache, live telemetry.  See the interface for the architecture
    overview. *)

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

(* a connection endpoint: workers and the reader thread both write
   response frames, serialized on [wlock] *)
type conn = { fd : Unix.file_descr; wlock : Mutex.t }

type job = {
  j_conn : conn;
  j_sess : Session.session;
  j_req : Wire.request;
  j_enq_ns : int64;
  j_seq : int;  (* global arrival order, stamped at admission *)
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
  queue : job Admission.t;
  listen_fd : Unix.file_descr;
  bound_port : int;
  stop_flag : bool Atomic.t;
  conns : (int, conn) Hashtbl.t;  (* live connections by session id *)
  conns_lock : Mutex.t;
  (* per-session execution chains: a session id is present iff one of its
     jobs is executing right now; jobs of that session taken from the
     admission queue meanwhile are deferred here and run, in FIFO order,
     by the worker finishing the current one — so a session has at most
     one request executing at a time and pipelined requests observe
     program order (an INSERT is visible to the SELECT behind it) *)
  order : (int, job Queue.t) Hashtbl.t;
  order_lock : Mutex.t;
  mutable accept_thread : Thread.t option;
  mutable worker_threads : Thread.t list;
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
  m_cache_hits : Metrics.counter;
  m_cache_misses : Metrics.counter;
  m_cache_evictions : Metrics.counter;
  m_latency : Metrics.histogram;
  (* live levels; [sync_gauges] refreshes the sampled ones at scrape
     time, [g_inflight] is maintained by the workers *)
  g_queue : Metrics.gauge;
  g_inflight : Metrics.gauge;
  g_sessions : Metrics.gauge;
  g_cache_entries : Metrics.gauge;
  g_cache_bytes : Metrics.gauge;
  g_uptime : Metrics.gauge;
  (* temporal interval index activity (Tkr_idx.Stats), sampled at
     scrape time like the other levels *)
  g_idx_built : Metrics.gauge;
  g_idx_rebuilds : Metrics.gauge;
  g_idx_probes : Metrics.gauge;
  g_idx_candidates : Metrics.gauge;
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

let send_raw conn frame =
  (* the peer may be gone; a failed reply must not kill the worker *)
  try locked conn.wlock (fun () -> Wire.write_frame conn.fd frame)
  with Unix.Unix_error _ | Wire.Protocol_error _ -> ()

let send_error srv conn ~id ?trace_id code message =
  Metrics.incr srv.m_errors;
  send_raw conn (Wire.error_frame ~id ?trace_id { Wire.code; message })

(* ---- query execution ---- *)

(* the cache key: normalized final plan plus the post-plan shape
   (ordering, limit, snapshot rendering) — everything that determines the
   result bytes besides the dependency table states *)
let plan_key (p : Middleware.prepared) =
  String.concat "\x00"
    [
      Algebra.to_string p.Middleware.plan;
      String.concat ","
        (List.map
           (fun (i, asc) -> Printf.sprintf "%d%c" i (if asc then 'a' else 'd'))
           p.Middleware.order_by);
      (match p.Middleware.limit with Some n -> string_of_int n | None -> "");
      (if p.Middleware.snapshot then "s" else "");
    ]

(* the short digest of a cache key: the identity that the slow-query log
   and [top] aggregate on — statements normalizing to the same plan
   share one fingerprint *)
let fingerprint (key : string) : string =
  String.sub (Digest.to_hex (Digest.string key)) 0 12

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
let record srv (j : job) ~exec_ns ~gc0:(minor0, _, major0) ~fp ~epoch ~deps
    ~rows_in ~disposition ~rows_out (reply : reply) : reply * Record.entry =
  let total_us = us_between j.j_enq_ns (Clock.now_ns ()) in
  let queue_us = us_between j.j_enq_ns exec_ns in
  let minor1, _, major1 = Gc.counters () in
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

(* Run one plain query with the cache.  The read_locked bracket makes
   (version read, execute, cache fill) atomic with respect to DDL/DML —
   versions observed here are the versions the result was computed
   from, and the ones [record] pins. *)
let run_query srv (j : job) record : reply * Record.entry =
  let req = j.j_req in
  Middleware.read_locked srv.mw @@ fun () ->
  let p = Session.prepared j.j_sess srv.mw req.Wire.stmt in
  let db = Middleware.database srv.mw in
  let key = plan_key p in
  let fp = fingerprint key in
  let deps =
    List.map (fun tb -> (tb, Database.version db tb)) p.Middleware.tables
  in
  let rows_in =
    List.fold_left
      (fun acc tb -> acc + Table.cardinality (Database.find db tb))
      0 p.Middleware.tables
  in
  let record = record ~fp ~epoch:(Middleware.epoch srv.mw) ~deps ~rows_in in
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
              Middleware.run_prepared ~obs srv.mw p)
      | _ -> Middleware.run_prepared ~obs srv.mw p
    in
    let rows_out = Table.cardinality tbl in
    let payload = Wire.body_to_payload (Wire.Rows tbl) in
    let evicted = Cache.add srv.cache ~rows:rows_out ~key ~deps payload in
    if evicted > 0 then begin
      Metrics.add srv.m_cache_evictions evicted;
      if Tel.enabled tel then Tel.emit tel (Tel.Cache_evict { count = evicted })
    end;
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
   execute_statement takes the right middleware lock side itself *)
let run_statement srv stmt : string * int =
  match Middleware.execute_statement srv.mw stmt with
  | Middleware.Rows tbl ->
      (Wire.body_to_payload (Wire.Rows tbl), Table.cardinality tbl)
  | Middleware.Done msg -> (Wire.body_to_payload (Wire.Message msg), 0)

(* Feed one finished request's record to every observer: the serve
   counters and latency histogram, the resource ledger, the flight
   recorder and the event log. *)
let observe srv (e : Record.entry) =
  Metrics.incr srv.m_requests;
  Metrics.observe srv.m_latency e.e_total_us;
  (match e.e_status with
  | "ok" -> ()
  | "DEADLINE_EXCEEDED" -> Metrics.incr srv.m_deadline
  | _ -> Metrics.incr srv.m_errors);
  (match e.e_disposition with
  | "hit" -> Metrics.incr srv.m_cache_hits
  | "miss" -> Metrics.incr srv.m_cache_misses
  | _ -> ());
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

(* ---- per-session ordering ---- *)

(* Enqueue [job] preserving per-session FIFO order.  The caller is the
   session's reader thread, which sees requests in arrival order, and at
   most one job per session is ever inside the admission queue: when the
   session already holds a claim (a job executing or queued), the new job
   is deferred onto the session's chain instead, to be run by the worker
   finishing the current one.  Two workers can therefore never race on
   the order of one session's requests.  The chain is bounded by the
   admission depth, so a pipelining flood gets [`Busy] backpressure like
   everyone else. *)
let enqueue srv (job : job) =
  let sid = Session.id job.j_sess in
  if Admission.draining srv.queue then `Draining
  else
    let claim =
      locked srv.order_lock @@ fun () ->
      match Hashtbl.find_opt srv.order sid with
      | Some pending ->
          if Queue.length pending >= srv.cfg.queue_depth then `Busy
          else begin
            Queue.push job pending;
            `Deferred
          end
      | None ->
          Hashtbl.replace srv.order sid (Queue.create ());
          `Claimed
    in
    match claim with
    | (`Busy | `Deferred) as r -> r
    | `Claimed -> (
        match Admission.submit srv.queue job with
        | `Accepted -> `Accepted
        | (`Busy | `Draining) as r ->
            (* the job never entered the queue: release the fresh claim
               (its chain is empty — this reader is the only submitter) *)
            locked srv.order_lock (fun () -> Hashtbl.remove srv.order sid);
            r)

(* done with one job of the session: hand back its next deferred job, or
   release the session's claim when the chain is dry *)
let session_next srv (job : job) =
  let sid = Session.id job.j_sess in
  locked srv.order_lock @@ fun () ->
  match Hashtbl.find_opt srv.order sid with
  | Some pending when not (Queue.is_empty pending) -> Some (Queue.pop pending)
  | _ ->
      Hashtbl.remove srv.order sid;
      None

(* ---- worker threads ---- *)

let run_one srv (job : job) =
  Metrics.gauge_add srv.g_inflight 1;
  Fun.protect ~finally:(fun () -> Metrics.gauge_add srv.g_inflight (-1))
  @@ fun () ->
  let req = job.j_req in
  let exec_ns = Clock.now_ns () in
  (* allocation attribution: words this domain allocates while the job
     runs.  Execution is serial, so the job's operators all allocate
     here.  [Gc.counters] is precise and domain-local; [Gc.quick_stat]'s
     minor count only advances at minor collections. *)
  let gc0 = Gc.counters () in
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
    record ~fp:(fingerprint req.Wire.stmt) ~epoch:(Middleware.epoch srv.mw)
      ~deps:[] ~rows_in:0 ~disposition ~rows_out reply
  in
  let fail code message =
    unplanned ~disposition:"error" ~rows_out:0 (Error { Wire.code; message })
  in
  let reply, e =
    match req.Wire.deadline_ms with
    | Some budget_ms when us_between job.j_enq_ns exec_ns >= budget_ms * 1000
      ->
        fail Wire.Deadline_exceeded
          (Printf.sprintf "deadline of %d ms exceeded in queue" budget_ms)
    | _ -> (
        (* plain queries go through the session's prepared table and the
           cache; EXPLAIN/CHECK/DDL/DML take the execute_statement path *)
        try
          match Tkr_sql.Parser.statement req.Wire.stmt with
          | Ast.Query _ -> run_query srv job record
          | stmt ->
              let payload, rows_out = run_statement srv stmt in
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
  in
  let id = req.Wire.id and trace_id = job.j_trace in
  send_raw job.j_conn
    (match reply with
    | Ok (payload, trace) ->
        Wire.ok_frame ~id ~cached:e.Record.e_cached
          ~elapsed_us:e.Record.e_total_us ?trace ?trace_id payload
    | Error err -> Wire.error_frame ~id ?trace_id err);
  observe srv e

let worker_loop srv () =
  (* every job handed out by the admission queue carries its session's
     claim: run it, then drain the jobs deferred behind it in FIFO order *)
  let rec run_chain job =
    run_one srv job;
    match session_next srv job with
    | Some next -> run_chain next
    | None -> ()
  in
  let rec loop () =
    match Admission.take srv.queue with
    | None -> ()  (* drained and dry: exit *)
    | Some job ->
        run_chain job;
        loop ()
  in
  loop ()

(* ---- scrape surface: STATS / METRICS / HEALTH ---- *)

(* refresh the sampled gauges; called at scrape time so an export always
   shows current levels without the hot path touching every gauge *)
let sync_gauges srv =
  Metrics.set srv.g_queue (Admission.length srv.queue);
  Metrics.set srv.g_sessions (Session.active srv.sessions);
  let cs = Cache.stats srv.cache in
  Metrics.set srv.g_cache_entries cs.Cache.entries;
  Metrics.set srv.g_cache_bytes cs.Cache.bytes;
  Metrics.set srv.g_uptime (uptime_s srv);
  let i = Tkr_idx.Stats.snapshot () in
  Metrics.set srv.g_idx_built i.Tkr_idx.Stats.s_built;
  Metrics.set srv.g_idx_rebuilds i.Tkr_idx.Stats.s_rebuilds;
  Metrics.set srv.g_idx_probes i.Tkr_idx.Stats.s_probes;
  Metrics.set srv.g_idx_candidates i.Tkr_idx.Stats.s_candidates

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

(* telemetry drop accounting, exported even though the event log itself
   lives outside the metrics registry *)
let tel_family srv : string list =
  if Tel.enabled srv.tel then
    [
      Openmetrics.type_line "tkr_tel_events_dropped_total" "counter"
      ^ Openmetrics.sample "tkr_tel_events_dropped_total"
          (float_of_int (Tel.dropped srv.tel));
    ]
  else []

let metrics_text srv : string =
  sync_gauges srv;
  Openmetrics.of_metrics
    ~extra:
      ((build_info_family srv :: tel_family srv)
      @ Ledger.openmetrics srv.ledger)
    (Middleware.metrics srv.mw)

let health_json srv : Json.t =
  let draining = Atomic.get srv.stop_flag || Admission.draining srv.queue in
  Json.Obj
    [
      ("status", Json.Str (if draining then "draining" else "ready"));
      ("uptime_s", Json.Int (uptime_s srv));
      ("sessions", Json.Int (Session.active srv.sessions));
      ("queue_depth", Json.Int (Admission.length srv.queue));
      ("inflight", Json.Int (Metrics.gauge_value srv.g_inflight));
    ]

let stats_json srv : Json.t =
  sync_gauges srv;
  let q p = Metrics.histogram_quantile srv.m_latency p in
  Json.Obj
    [
      ("uptime_s", Json.Int (uptime_s srv));
      ("requests", Json.Int (Metrics.value srv.m_requests));
      ("errors", Json.Int (Metrics.value srv.m_errors));
      ("busy", Json.Int (Metrics.value srv.m_busy));
      ("deadline_exceeded", Json.Int (Metrics.value srv.m_deadline));
      ("sessions", Json.Int (Metrics.gauge_value srv.g_sessions));
      ("queue_depth", Json.Int (Metrics.gauge_value srv.g_queue));
      ("inflight", Json.Int (Metrics.gauge_value srv.g_inflight));
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
            ("built", Json.Int (Metrics.gauge_value srv.g_idx_built));
            ("rebuilds", Json.Int (Metrics.gauge_value srv.g_idx_rebuilds));
            ("probes", Json.Int (Metrics.gauge_value srv.g_idx_probes));
            ( "candidates",
              Json.Int (Metrics.gauge_value srv.g_idx_candidates) );
          ] );
      ("cache", Cache.stats_json srv.cache);
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

(* the scrape commands answer from the reader thread, ahead of admission:
   they stay responsive under a full queue and HEALTH keeps answering
   (as "draining") during a drain, when the queue admits nothing *)
let scrape srv (req : Wire.request) : string option =
  match String.uppercase_ascii (String.trim req.Wire.stmt) with
  | "STATS" -> Some (Json.to_string (stats_json srv))
  | "METRICS" -> Some (metrics_text srv)
  | "HEALTH" -> Some (Json.to_string (health_json srv))
  | "LEDGER" -> Some (Json.to_string (Ledger.to_json ~top:50 srv.ledger))
  | _ -> None

(* ---- connection threads ---- *)

let conn_loop srv conn sess () =
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
    (try Unix.close conn.fd with Unix.Unix_error _ -> ())
  in
  Fun.protect ~finally @@ fun () ->
  if Tel.enabled srv.tel then Tel.emit srv.tel (Tel.Conn_open { session = sid });
  send_raw conn (Wire.greeting_frame ~session_id:sid);
  let rec loop () =
    match Wire.read_frame conn.fd with
    | None -> ()  (* clean close *)
    | Some frame ->
        (match Wire.request_of_json (Json.of_string frame) with
        | req -> (
            match scrape srv req with
            | Some payload ->
                send_raw conn
                  (Wire.ok_frame ~id:req.Wire.id ~cached:false ~elapsed_us:0
                     ?trace_id:req.Wire.trace_id
                     (Wire.body_to_payload (Wire.Message payload)))
            | None -> (
                let j_trace =
                  match req.Wire.trace_id with
                  | Some _ as tid -> tid
                  | None ->
                      if Tel.enabled srv.tel then
                        Some
                          (Printf.sprintf "t%d-%d" sid
                             (Atomic.fetch_and_add srv.trace_seq 1))
                      else None
                in
                let job =
                  { j_conn = conn; j_sess = sess; j_req = req;
                    j_enq_ns = Clock.now_ns ();
                    j_seq = Atomic.fetch_and_add srv.arrive_seq 1;
                    j_arrive_ms =
                      (if Record.enabled srv.recorder then
                         int_of_float (Unix.gettimeofday () *. 1000.)
                       else 0);
                    j_trace }
                in
                match enqueue srv job with
                | `Accepted | `Deferred -> ()
                | `Busy ->
                    Metrics.incr srv.m_busy;
                    if Tel.enabled srv.tel then
                      Tel.emit srv.tel
                        (Tel.Admission_reject { session = sid; reason = "busy" });
                    send_error srv conn ~id:req.Wire.id
                      ?trace_id:req.Wire.trace_id Wire.Server_busy
                      "admission queue full, retry later"
                | `Draining ->
                    if Tel.enabled srv.tel then
                      Tel.emit srv.tel
                        (Tel.Admission_reject
                           { session = sid; reason = "draining" });
                    send_error srv conn ~id:req.Wire.id
                      ?trace_id:req.Wire.trace_id Wire.Server_shutdown
                      "server is draining"))
        | exception (Wire.Protocol_error msg | Json.Parse_error msg) ->
            send_error srv conn ~id:0 Wire.Protocol_violation msg);
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
              let conn = { fd; wlock = Mutex.create () } in
              match Session.open_session srv.sessions with
              | None ->
                  if Tel.enabled srv.tel then
                    Tel.emit srv.tel
                      (Tel.Admission_reject
                         { session = 0; reason = "session_limit" });
                  send_raw conn
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
                      Hashtbl.replace srv.conns (Session.id sess) conn;
                      srv.conn_threads <-
                        Thread.create (conn_loop srv conn sess) ()
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
      queue = Admission.create ~depth:config.queue_depth;
      listen_fd;
      bound_port;
      stop_flag = Atomic.make false;
      conns = Hashtbl.create 64;
      conns_lock = Mutex.create ();
      order = Hashtbl.create 64;
      order_lock = Mutex.create ();
      accept_thread = None;
      worker_threads = [];
      conn_threads = [];
      tel;
      trace_seq = Atomic.make 1;
      start_ns = Clock.now_ns ();
      env = Tkr_perf.Env.capture ();
      recorder;
      ledger = Ledger.create ();
      arrive_seq = Atomic.make 0;
      m_requests = Metrics.counter reg "serve_requests_total";
      m_busy = Metrics.counter reg "serve_busy_total";
      m_deadline = Metrics.counter reg "serve_deadline_exceeded_total";
      m_errors = Metrics.counter reg "serve_errors_total";
      m_cache_hits = Metrics.counter reg "serve_cache_hits_total";
      m_cache_misses = Metrics.counter reg "serve_cache_misses_total";
      m_cache_evictions = Metrics.counter reg "serve_cache_evictions_total";
      m_latency = Metrics.histogram reg "serve_latency_us";
      g_queue = Metrics.gauge reg "serve_queue_depth";
      g_inflight = Metrics.gauge reg "serve_inflight_requests";
      g_sessions = Metrics.gauge reg "serve_sessions";
      g_cache_entries = Metrics.gauge reg "serve_cache_entries";
      g_cache_bytes = Metrics.gauge reg "serve_cache_bytes";
      g_uptime = Metrics.gauge reg "uptime_seconds";
      g_idx_built = Metrics.gauge reg "tkr_idx_built";
      g_idx_rebuilds = Metrics.gauge reg "tkr_idx_rebuilds";
      g_idx_probes = Metrics.gauge reg "tkr_idx_probes";
      g_idx_candidates = Metrics.gauge reg "tkr_idx_candidates";
    }
  in
  if Tel.enabled tel then
    Middleware.set_epoch_hook mw
      (Some (fun epoch -> Tel.emit tel (Tel.Epoch_bump { epoch })));
  srv.worker_threads <-
    List.init (max 1 config.workers) (fun _ -> Thread.create (worker_loop srv) ());
  srv.accept_thread <- Some (Thread.create (accept_loop srv) ());
  srv

let stop ?(reason = "stop") srv =
  if Atomic.compare_and_set srv.stop_flag false true then begin
    if Tel.enabled srv.tel then Tel.emit srv.tel (Tel.Drain { reason });
    (* 1. stop accepting connections *)
    (match srv.accept_thread with Some th -> Thread.join th | None -> ());
    (try Unix.close srv.listen_fd with Unix.Unix_error _ -> ());
    (* 2. drain: no new requests; workers finish everything accepted *)
    Admission.drain srv.queue;
    List.iter Thread.join srv.worker_threads;
    (* 3. wake blocked readers (EOF) and join connection threads *)
    let conn_fds =
      locked srv.conns_lock (fun () ->
          Hashtbl.fold (fun _ c acc -> c.fd :: acc) srv.conns [])
    in
    List.iter
      (fun fd ->
        try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      conn_fds;
    let threads = locked srv.conns_lock (fun () -> srv.conn_threads) in
    List.iter Thread.join threads;
    (* the middleware outlives the server: detach the epoch observer so
       later DDL doesn't write into a log the caller may close *)
    if Tel.enabled srv.tel then Middleware.set_epoch_hook srv.mw None
  end

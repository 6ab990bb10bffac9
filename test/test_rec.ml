(* The flight recorder (Tkr_rec / Tkr_replay): recording format
   round-trips and version gating, the per-fingerprint resource ledger
   (ring reuse, hit ratios, quantiles, scrape/OpenMetrics shapes),
   capture through a live server, deterministic replay byte-identity
   over a 4-session interleaved DML workload with the cache on and off
   (alcotest + a qcheck shuffle of cross-session arrival order), the
   LEDGER scrape surface, the zero-window [tkr_cli top] frame, replay
   leaving unsent the writes the capture server rejected, and the
   recorder, event log, ledger and STATS agreeing on every request. *)

module M = Tkr_middleware.Middleware
module Wire = Tkr_serve.Wire
module Server = Tkr_serve.Server
module Client = Tkr_serve.Client
module Console = Tkr_serve.Console
module Tel = Tkr_tel.Tel
module Record = Tkr_rec.Record
module Ledger = Tkr_rec.Ledger
module Replay = Tkr_replay.Replay
module Json = Tkr_obs.Json
module Jsonl = Tkr_obs.Jsonl
module W = Tkr_workload.Employees
module Q = Tkr_workload.Queries

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let contains hay needle =
  let n = String.length hay and m = String.length needle in
  let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
  go 0

let msg_body (rsp : Wire.response) =
  match rsp.Wire.body with
  | Ok (Wire.Message m) -> m
  | _ -> Alcotest.fail "expected a message body"

let jint j key =
  Option.value ~default:0 (Option.bind (Json.member key j) Json.to_int_opt)

(* ---- recording format ---- *)

let sample_entry =
  {
    Record.e_seq = 7;
    e_session = 3;
    e_req_id = 12;
    e_trace_id = Some "tr-1";
    e_stmt = "SELECT x FROM kv";
    e_deadline_ms = Some 250;
    e_arrive_ms = 1754600000123;
    e_arrive_ns = 987654321098L;
    e_queue_us = 41;
    e_exec_us = 1200;
    e_total_us = 1241;
    e_status = "ok";
    e_cached = true;
    e_disposition = "hit";
    e_fp = "d598abf32d35";
    e_epoch = 6;
    e_deps = [ ("kv", 4); ("aux", 1) ];
    e_rows_in = 626;
    e_rows_out = 9;
    e_gc_minor_w = 15468;
    e_gc_major_w = 112;
    e_digest = "0123456789abcdef0123456789abcdef";
  }

let test_header_roundtrip () =
  let h = Record.header ~workload:"employee" ~source:"test" () in
  let h' = Record.header_of_json (Json.of_string (Json.to_string (Record.header_to_json h))) in
  check "header survives JSON" true (h' = h);
  check_int "current version" Record.format_version h'.Record.h_version;
  (* minimal header: optional workload absent *)
  let bare = Record.header () in
  check "bare header survives" true
    (Record.header_of_json (Record.header_to_json bare) = bare)

let test_header_version_gate () =
  let reject name j =
    match Record.header_of_json j with
    | exception Record.Format_error _ -> ()
    | _ -> Alcotest.fail (name ^ " accepted")
  in
  reject "bad magic"
    (Json.Obj [ ("rec", Json.Str "not-a-recording"); ("version", Json.Int 1) ]);
  reject "future version"
    (Json.Obj
       [
         ("rec", Json.Str "tkr-flight-recording");
         ("version", Json.Int (Record.format_version + 1));
       ]);
  reject "no header at all" (Json.Obj [ ("seq", Json.Int 0) ])

let test_entry_roundtrip () =
  let back e = Record.entry_of_json (Json.of_string (Json.to_string (Record.entry_to_json e))) in
  check "entry survives JSON (all fields)" true (back sample_entry = sample_entry);
  (* optional fields absent, error status *)
  let e2 =
    {
      sample_entry with
      Record.e_trace_id = None;
      e_deadline_ms = None;
      e_status = "CHECK_VIOLATION";
      e_cached = false;
      e_disposition = "error";
      e_deps = [];
    }
  in
  check "entry survives JSON (optionals absent)" true (back e2 = e2)

let test_recorder_sink () =
  let lines = ref [] in
  let r =
    Record.create
      ~header:(Record.header ~workload:"employee" ~source:"unit" ())
      (Jsonl.Fn (fun j -> lines := j :: !lines))
  in
  check "fresh recorder enabled" true (Record.enabled r);
  check "disabled recorder is off" false (Record.enabled Record.disabled);
  Record.write Record.disabled sample_entry;
  Record.write r sample_entry;
  Record.write r { sample_entry with Record.e_seq = 8 };
  check_int "two entries recorded" 2 (Record.recorded r);
  Record.close r;
  Record.close r;
  check "closed recorder disabled" false (Record.enabled r);
  Record.write r sample_entry;
  check_int "writes after close ignored" 2 (Record.recorded r);
  (* header line first, then the entries *)
  match List.rev !lines with
  | hdr :: es ->
      check "header line first" true
        ((Record.header_of_json hdr).Record.h_workload = Some "employee");
      check_int "entry lines" 2 (List.length es)
  | [] -> Alcotest.fail "no lines emitted"

let test_read_restores_arrival_order () =
  let path = Filename.temp_file "tkr_rec" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out path in
  let r = Record.create (Jsonl.Chan oc) in
  (* completion order 2,0,1 — read_file must restore 0,1,2 *)
  List.iter
    (fun s -> Record.write r { sample_entry with Record.e_seq = s })
    [ 2; 0; 1 ];
  Record.close r;
  close_out oc;
  let h, entries = Record.read_file path in
  check_int "header version" Record.format_version h.Record.h_version;
  Alcotest.(check (list int))
    "entries sorted by seq" [ 0; 1; 2 ]
    (List.map (fun e -> e.Record.e_seq) entries)

(* ---- resource ledger ---- *)

(* one finished request as the server records it *)
let finished ~fp ~stmt ~status ~disposition ~queue_us ~total_us ~rows_out
    ~gc_minor_w ~gc_major_w =
  {
    sample_entry with
    Record.e_fp = fp;
    e_stmt = stmt;
    e_status = status;
    e_cached = disposition = "hit";
    e_disposition = disposition;
    e_queue_us = queue_us;
    e_exec_us = total_us - queue_us;
    e_total_us = total_us;
    e_rows_out = rows_out;
    e_gc_minor_w = gc_minor_w;
    e_gc_major_w = gc_major_w;
  }

let observe_n l ~fp ~stmt ~disposition ~total_us n =
  for _ = 1 to n do
    Ledger.observe l
      (finished ~fp ~stmt ~status:"ok" ~disposition ~queue_us:5 ~total_us
         ~rows_out:3 ~gc_minor_w:100 ~gc_major_w:10)
  done

let test_ledger_accounting () =
  let l = Ledger.create ~capacity:8 () in
  check_int "empty ledger tracks nothing" 0 (Ledger.size l);
  Alcotest.(check (list Alcotest.pass)) "empty rows" [] (Ledger.rows l);
  check "empty exposition" true (Ledger.openmetrics l = []);
  observe_n l ~fp:"aaa" ~stmt:"SELECT a" ~disposition:"miss" ~total_us:1000 1;
  observe_n l ~fp:"aaa" ~stmt:"SELECT a" ~disposition:"hit" ~total_us:200 3;
  observe_n l ~fp:"bbb" ~stmt:"SELECT b" ~disposition:"off" ~total_us:9000 1;
  Ledger.observe l
    (finished ~fp:"bbb" ~stmt:"SELECT b" ~status:"RUNTIME_ERROR"
       ~disposition:"error" ~queue_us:1 ~total_us:2 ~rows_out:0 ~gc_minor_w:0
       ~gc_major_w:0);
  check_int "two fingerprints" 2 (Ledger.size l);
  let row fp = List.find (fun r -> r.Ledger.r_fp = fp) (Ledger.rows l) in
  let a = row "aaa" and b = row "bbb" in
  check_int "aaa count" 4 a.Ledger.r_count;
  check_int "aaa hits" 3 a.Ledger.r_hits;
  check_int "aaa misses" 1 a.Ledger.r_misses;
  check_int "aaa cumulative wall" 1600 a.Ledger.r_total_us;
  check_int "aaa max" 1000 a.Ledger.r_max_us;
  check_int "aaa rows out" 12 a.Ledger.r_rows_out;
  check "aaa hit ratio" true (abs_float (Ledger.hit_ratio a -. 0.75) < 1e-9);
  check "aaa quantiles ordered" true
    (a.Ledger.r_p50_us <= a.Ledger.r_p95_us && a.Ledger.r_p95_us > 0);
  check_int "bbb errors" 1 b.Ledger.r_errors;
  check "bbb untouched cache never nan" true (Ledger.hit_ratio b = 0.0);
  (* rows are sorted by cumulative wall time, bbb (9002us) first *)
  (match Ledger.rows l with
  | first :: _ -> check_str "sorted by wall" "bbb" first.Ledger.r_fp
  | [] -> Alcotest.fail "rows empty");
  (match Ledger.rows ~top:1 l with
  | [ _ ] -> ()
  | rs -> Alcotest.fail (Printf.sprintf "top:1 kept %d" (List.length rs)));
  let j = Ledger.to_json l in
  check_int "scrape capacity" 8 (jint j "capacity");
  check_int "scrape tracked" 2 (jint j "tracked");
  let om = String.concat "" (Ledger.openmetrics l) in
  List.iter
    (fun needle -> check ("exposition has " ^ needle) true (contains om needle))
    [
      "# TYPE tkr_ledger_requests gauge";
      {|tkr_ledger_requests{fingerprint="aaa"} 4|};
      {|tkr_ledger_cache_hit_ratio{fingerprint="aaa"} 0.75|};
      "tkr_ledger_latency_p95_us";
    ]

let test_ledger_ring_reuse () =
  let l = Ledger.create ~capacity:4 () in
  for k = 0 to 9 do
    observe_n l
      ~fp:(Printf.sprintf "fp%d" k)
      ~stmt:"S" ~disposition:"miss" ~total_us:100 1
  done;
  check_int "ring holds capacity" 4 (Ledger.size l);
  check_int "displacements counted" 6 (Ledger.evictions l);
  (* the survivors are the most recent arrivals *)
  let fps = List.map (fun r -> r.Ledger.r_fp) (Ledger.rows l) in
  List.iter
    (fun k ->
      check
        (Printf.sprintf "fp%d survived" k)
        true
        (List.mem (Printf.sprintf "fp%d" k) fps))
    [ 6; 7; 8; 9 ];
  (* a displaced fingerprint starts a fresh slot, not stale counts *)
  observe_n l ~fp:"fp0" ~stmt:"S" ~disposition:"miss" ~total_us:100 1;
  let r0 = List.find (fun r -> r.Ledger.r_fp = "fp0") (Ledger.rows l) in
  check_int "fresh slot after displacement" 1 r0.Ledger.r_count

(* ---- capture + deterministic replay through a live server ---- *)

let fresh_mw () =
  let m = M.create ~db:(W.generate { (W.scaled 40) with W.tmax = 600 }) () in
  ignore (M.execute m "CREATE TABLE kv (x int)");
  m

let with_rec_server ?(cache_mb = 16) ?tel ?recorder f =
  let m = fresh_mw () in
  let srv =
    Server.start
      ~config:
        {
          Server.default_config with
          port = 0;
          cache_mb;
          max_sessions = 16;
          workers = 4;
        }
      ?tel ?recorder m
  in
  Fun.protect ~finally:(fun () -> Server.stop srv) (fun () -> f m srv)

(* four per-session programs over shared tables: DML on [kv] interleaved
   with catalog queries and a repeated SELECT so the cache sees hits.
   No program depends on another session's statements, so every
   cross-session interleaving that respects program order is a valid
   execution — exactly what replay must reproduce. *)
let session_programs =
  let q name = Q.lookup name Q.employee in
  List.init 4 (fun s ->
      [
        Printf.sprintf "INSERT INTO kv VALUES (%d), (%d)" (10 * s) ((10 * s) + 1);
        "SELECT x FROM kv";
        q (if s mod 2 = 0 then "agg-1" else "join-1");
        Printf.sprintf "DELETE FROM kv WHERE x = %d" (10 * s);
        "SELECT x FROM kv";
        q "diff-1";
        q "diff-1";
      ])

(* drive the capture server with a prescribed global arrival order:
   statements are issued one at a time (each waits for its response), so
   server arrival order is issue order; entry [order] lists session ids,
   each occurrence consuming the next statement of that session's
   program. *)
let capture_workload ~order path =
  let oc = open_out path in
  let recorder =
    Record.create
      ~header:(Record.header ~workload:"employee" ~source:"test" ())
      (Jsonl.Chan oc)
  in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  (* close the recorder only after [with_rec_server] has run Server.stop:
     entries are written by the connection threads after the response
     is sent, so the last ones land during the stop drain (production
     does the same — tkr_cli closes the recorder after the server has
     stopped) *)
  Fun.protect ~finally:(fun () -> Record.close recorder) @@ fun () ->
  with_rec_server ~recorder @@ fun _m srv ->
  let port = Server.port srv in
  let clients = Array.init 4 (fun _ -> Client.connect ~port ()) in
  let remaining = Array.of_list (List.map (fun p -> ref p) session_programs) in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun c -> try Client.close c with _ -> ()) clients)
    (fun () ->
      List.iter
        (fun s ->
          match !(remaining.(s)) with
          | [] -> ()
          | stmt :: rest ->
              remaining.(s) := rest;
              ignore (Client.run_exn clients.(s) stmt))
        order;
      Array.iter
        (fun r -> check "program fully issued" true (!r = []))
        remaining)

let round_robin_order =
  List.concat_map
    (fun _ -> [ 0; 1; 2; 3 ])
    (List.init (List.length (List.nth session_programs 0)) Fun.id)

let replay_against ~cache_mb entries =
  with_rec_server ~cache_mb @@ fun _m srv ->
  Replay.run ~port:(Server.port srv) entries

let test_capture_replay_byte_identity () =
  let path = Filename.temp_file "tkr_rec_e2e" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  capture_workload ~order:round_robin_order path;
  let h, entries = Record.read_file path in
  check "header names the workload" true (h.Record.h_workload = Some "employee");
  let n = List.length (List.concat session_programs) in
  check_int "every request recorded" n (List.length entries);
  check "deps recorded on queries" true
    (List.exists (fun e -> List.mem_assoc "kv" e.Record.e_deps) entries);
  check "GC words attributed" true
    (List.exists (fun e -> e.Record.e_gc_minor_w > 0) entries);
  check "cache hits recorded" true
    (List.exists (fun e -> e.Record.e_disposition = "hit") entries);
  (* cache on: replayed responses must be byte-identical, hits included *)
  let warm = replay_against ~cache_mb:16 entries in
  check "cache-on replay identical" true (Replay.identical warm);
  check_int "all entries compared" n warm.Replay.compared;
  check_int "four sessions" 4 warm.Replay.sessions;
  check "replay saw cache hits" true (warm.Replay.cached > 0);
  (* cache off: same bytes must come from fresh execution *)
  let cold = replay_against ~cache_mb:0 entries in
  check "cache-off replay identical" true (Replay.identical cold);
  check_int "cache-off compared everything" n cold.Replay.compared;
  check_int "no hits without a cache" 0 cold.Replay.cached

(* qcheck: any shuffle of cross-session arrival order that preserves
   per-session program order records a workload that replays
   byte-identically.  The generator merges the four per-session
   programs using a stream of random picks. *)
let order_of_picks picks =
  let counts = Array.of_list (List.map List.length session_programs) in
  let order = ref [] in
  let picks = ref picks in
  let next_pick () =
    match !picks with
    | [] -> 0
    | p :: rest ->
        picks := rest;
        p
  in
  let total = Array.fold_left ( + ) 0 counts in
  for _ = 1 to total do
    let live = ref [] in
    Array.iteri (fun s c -> if c > 0 then live := s :: !live) counts;
    let live = List.rev !live in
    let s = List.nth live (next_pick () mod List.length live) in
    counts.(s) <- counts.(s) - 1;
    order := s :: !order
  done;
  List.rev !order

let qcheck_shuffled_replay =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:3
       ~name:"shuffled arrival order still replays byte-identically"
       QCheck.(list_of_size (Gen.return 40) (QCheck.int_range 0 1000))
       (fun picks ->
         let order = order_of_picks picks in
         (* per-session subsequences are the programs in order *)
         List.iteri
           (fun s prog ->
             let mine = List.filter (fun x -> x = s) order in
             assert (List.length mine = List.length prog))
           session_programs;
         let path = Filename.temp_file "tkr_rec_q" ".jsonl" in
         Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
         capture_workload ~order path;
         let _, entries = Record.read_file path in
         let o = replay_against ~cache_mb:16 entries in
         Replay.identical o && o.Replay.compared = List.length entries))

(* ---- scrape surface: LEDGER statement and OpenMetrics families ---- *)

let test_ledger_scrape_and_metrics () =
  let tel = Tel.create (Jsonl.Fn ignore) in
  with_rec_server ~tel @@ fun _m srv ->
  Client.with_client ~port:(Server.port srv) @@ fun c ->
  ignore (Client.run_exn c "INSERT INTO kv VALUES (1), (2)");
  let q = "SELECT x FROM kv" in
  ignore (Client.run_exn c q);
  ignore (Client.run_exn c q);
  (* LEDGER is answered by the connection's thread, and observe runs
     after the response is sent — fence with one more executed
     statement: per-session FIFO runs it after the second SELECT's
     finish, so its response means both observes landed.
     Fence twice with the same text — the second run fences the first
     fence's own observe, and being the same fingerprint it cannot move
     the tracked-plan count between the scrape and the accessor check *)
  ignore (Client.run_exn c "INSERT INTO kv VALUES (3)");
  ignore (Client.run_exn c "INSERT INTO kv VALUES (3)");
  let ledger = Json.of_string (msg_body (Client.run_exn c "LEDGER")) in
  check "ledger tracks live plans" true (jint ledger "tracked" >= 2);
  let rows =
    match Json.member "rows" ledger with
    | Some (Json.List rows) -> rows
    | _ -> Alcotest.fail "LEDGER payload has no rows"
  in
  let sel =
    List.find_opt
      (fun r ->
        match Option.bind (Json.member "stmt" r) Json.to_string_opt with
        | Some s -> s = q
        | None -> false)
      rows
  in
  (match sel with
  | Some r ->
      check_int "SELECT ran twice" 2 (jint r "count");
      check_int "second run was a hit" 1 (jint r "hits");
      check "p95 populated" true (jint r "p95_us" > 0)
  | None -> Alcotest.fail "SELECT fingerprint missing from LEDGER");
  (* server ledger accessor agrees with the scrape *)
  check_int "accessor sees the same plans" (jint ledger "tracked")
    (Ledger.size (Server.ledger srv));
  let metrics = msg_body (Client.run_exn c "METRICS") in
  List.iter
    (fun needle -> check ("metrics has " ^ needle) true (contains metrics needle))
    [
      "# TYPE tkr_ledger_requests gauge";
      "tkr_ledger_requests{fingerprint=";
      "tkr_ledger_cache_hit_ratio";
      "# TYPE tkr_tel_events_dropped_total counter";
      "tkr_tel_events_dropped_total 0";
      "# EOF\n";
    ]

(* ---- tkr_cli top: zero-window frame golden ---- *)

let test_console_zero_window () =
  check_str "qps before first window" "-"
    (Console.qps_text ~interval:2.0 ~prev_requests:(-1) ~requests:9);
  check_str "qps with degenerate interval" "-"
    (Console.qps_text ~interval:0.0 ~prev_requests:0 ~requests:9);
  check_str "steady qps" "4.5"
    (Console.qps_text ~interval:2.0 ~prev_requests:0 ~requests:9);
  check "hit rate without lookups" true
    (Console.hit_rate_pct ~hits:0 ~misses:0 = 0.0);
  let frame =
    Console.frame ~host:"h" ~port:7 ~interval:2.0 ~prev_requests:(-1)
      ~stats:(Json.Obj []) ~health:(Json.Obj []) ~ledger:None ()
  in
  let golden =
    String.concat "\n"
      [
        "tkr top — h:7      up 0s";
        "requests  0   (- req/s)   errors 0   busy 0   deadline 0";
        "sessions  0   queue 0   inflight 0";
        "latency   p50 0 us   p95 0 us   p99 0 us   (0 samples)";
        "cache     hit 0.0%   entries 0   0.0/0.0 MiB   evictions 0   \
         invalidations 0";
        "";
      ]
  in
  check_str "zero-window frame golden" golden frame;
  check "no nan in empty frame" false (contains frame "nan");
  (* a ledger payload adds the panel *)
  let l = Ledger.create () in
  observe_n l ~fp:"abc" ~stmt:"SELECT 1" ~disposition:"hit" ~total_us:1000 2;
  let with_ledger =
    Console.frame ~host:"h" ~port:7 ~interval:2.0 ~prev_requests:0
      ~stats:(Json.Obj []) ~health:(Json.Obj [])
      ~ledger:(Some (Ledger.to_json l)) ()
  in
  check "ledger panel renders" true
    (contains with_ledger "ledger (top by wall time):");
  check "ledger row renders" true (contains with_ledger "abc");
  (* an index object in STATS adds the tkr_idx line *)
  let with_index =
    Console.frame ~host:"h" ~port:7 ~interval:2.0 ~prev_requests:0
      ~stats:
        (Json.Obj
           [
             ( "index",
               Json.Obj
                 [
                   ("enabled", Json.Bool true);
                   ("built", Json.Int 2);
                   ("rebuilds", Json.Int 1);
                   ("probes", Json.Int 40);
                   ("candidates", Json.Int 120);
                 ] );
           ])
      ~health:(Json.Obj []) ~ledger:None ()
  in
  check "index line renders" true
    (contains with_index
       "index     on    built 2   rebuilds 1   probes 40   candidates 120")

(* ---- replay: requests the capture server rejected stay unsent ---- *)

(* a write rejected in the queue never ran at capture; replay keeps its
   turn in arrival order but must not send it, or the replayed server
   executes it and every later read diverges *)
let test_replay_skips_rejected_write () =
  let path = Filename.temp_file "tkr_rec_rejected" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out path in
  let recorder = Record.create (Jsonl.Chan oc) in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      Fun.protect ~finally:(fun () -> Record.close recorder) @@ fun () ->
      with_rec_server ~recorder @@ fun _m srv ->
      Client.with_client ~port:(Server.port srv) @@ fun c ->
      (match
         (Client.run ~deadline_ms:0 c "INSERT INTO kv VALUES (99)").Wire.body
       with
      | Error { Wire.code = Wire.Deadline_exceeded; _ } -> ()
      | _ -> Alcotest.fail "expected DEADLINE_EXCEEDED");
      ignore (Client.run_exn c "SELECT x FROM kv"));
  let _, entries = Record.read_file path in
  check_int "both requests recorded" 2 (List.length entries);
  let o = replay_against ~cache_mb:16 entries in
  check_int "rejected write skipped" 1 o.Replay.skipped;
  check_int "read compared" 1 o.Replay.compared;
  check_int "read matched" 1 o.Replay.matched;
  check "replay identical" true (Replay.identical o)

(* ---- one record, many observers: the recorder, the event log, the
   ledger and the STATS counters tell the same story ---- *)

let test_observers_agree () =
  let lock = Mutex.create () in
  let collect r j =
    Mutex.lock lock;
    r := j :: !r;
    Mutex.unlock lock
  in
  let events = ref [] and lines = ref [] in
  let tel = Tel.create (Jsonl.Fn (collect events)) in
  let recorder = Record.create (Jsonl.Fn (collect lines)) in
  let stats, ledger_count =
    with_rec_server ~tel ~recorder @@ fun _m srv ->
    (Client.with_client ~port:(Server.port srv) @@ fun c ->
     let q = "SELECT x FROM kv" in
     check "first read misses" false (Client.run_exn c q).Wire.cached;
     check "second read hits" true (Client.run_exn c q).Wire.cached;
     ignore (Client.run_exn c "INSERT INTO kv VALUES (5)");
     (match (Client.run c "SELEC x").Wire.body with
     | Error { Wire.code = Wire.Parse_error; _ } -> ()
     | _ -> Alcotest.fail "expected PARSE_ERROR");
     match (Client.run ~deadline_ms:0 c q).Wire.body with
     | Error { Wire.code = Wire.Deadline_exceeded; _ } -> ()
     | _ -> Alcotest.fail "expected DEADLINE_EXCEEDED");
    (* the drain joins the connection threads: every observer has seen
       every request *)
    Server.stop srv;
    ( Server.stats_json srv,
      List.fold_left
        (fun acc r -> acc + r.Ledger.r_count)
        0
        (Ledger.rows (Server.ledger srv)) )
  in
  Record.close recorder;
  let entries =
    List.filter_map
      (fun j ->
        if Json.member "stmt" j = None then None
        else Some (Record.entry_of_json j))
      !lines
  in
  let finishes =
    List.filter
      (fun j ->
        Option.bind (Json.member "event" j) Json.to_string_opt
        = Some "request_finish")
      !events
  in
  check_int "one entry per request" 5 (List.length entries);
  check_int "one request_finish per request" 5 (List.length finishes);
  List.iter
    (fun (e : Record.entry) ->
      let tid =
        match e.Record.e_trace_id with
        | Some t -> t
        | None -> Alcotest.fail "entry without a trace id"
      in
      match
        List.filter
          (fun j ->
            Option.bind (Json.member "trace_id" j) Json.to_string_opt
            = Some tid)
          finishes
      with
      | [ f ] ->
          check_str ("status of " ^ tid) e.Record.e_status
            (Option.value ~default:""
               (Option.bind (Json.member "status" f) Json.to_string_opt));
          check ("cached of " ^ tid) true
            (Json.member "cached" f = Some (Json.Bool e.Record.e_cached))
      | fs ->
          Alcotest.fail
            (Printf.sprintf "%d request_finish lines for %s" (List.length fs)
               tid))
    entries;
  let count p = List.length (List.filter p entries) in
  let status s (e : Record.entry) = e.Record.e_status = s in
  let disp d (e : Record.entry) = e.Record.e_disposition = d in
  check_int "ledger counts = STATS requests" (jint stats "requests")
    ledger_count;
  check_int "STATS requests = recorded entries" (List.length entries)
    (jint stats "requests");
  let cache =
    match Json.member "cache" stats with
    | Some c -> c
    | None -> Alcotest.fail "STATS without cache"
  in
  List.iter
    (fun (what, stat, recorded, expected) ->
      check_int (what ^ " matches the record") recorded stat;
      check_int (what ^ " value") expected stat)
    [
      ( "errors",
        jint stats "errors",
        count (fun e -> not (status "ok" e || status "DEADLINE_EXCEEDED" e)),
        1 );
      ( "deadline_exceeded",
        jint stats "deadline_exceeded",
        count (status "DEADLINE_EXCEEDED"),
        1 );
      ("cache hits", jint cache "hits", count (disp "hit"), 1);
      ("cache misses", jint cache "misses", count (disp "miss"), 1);
    ];
  check_int "one bypass" 1 (count (disp "bypass"))

(* A recording captured by a server from before the wire codec became
   one scanner (fixtures/flight-employee.jsonl: the employee workload in
   two passes, AS OF reads with float and UTF-8 results, a write with a
   read after it, a parse and a runtime error, and a write rejected in
   the queue).  It must replay byte-identically on today's server, with
   the cache on and off.  The catalog is [tkr_cli serve --workload
   employee]'s: 150 employees, tmax 2000. *)
let test_fixture_replays_byte_identically () =
  let h, entries = Record.read_file "fixtures/flight-employee.jsonl" in
  check "fixture names its workload" true (h.Record.h_workload = Some "employee");
  List.iter
    (fun cache_mb ->
      let m = M.create ~db:(W.generate { (W.scaled 150) with W.tmax = 2000 }) () in
      let srv =
        Server.start
          ~config:{ Server.default_config with port = 0; cache_mb; max_sessions = 32 }
          m
      in
      let o =
        Fun.protect ~finally:(fun () -> Server.stop srv) @@ fun () ->
        Replay.run ~port:(Server.port srv) entries
      in
      let label = Printf.sprintf "cache %d MB: " cache_mb in
      check_int (label ^ "nothing failed") 0 o.Replay.failed;
      check_int (label ^ "the queue-rejected write is skipped") 1 o.Replay.skipped;
      check_int (label ^ "every compared response matched")
        o.Replay.compared o.Replay.matched;
      check (label ^ "identical") true (Replay.identical o);
      if cache_mb > 0 then check (label ^ "the second pass hit the cache") true (o.Replay.cached > 0))
    [ 16; 0 ]

let suite =
  ( "rec",
    [
      Alcotest.test_case "record: header round-trip" `Quick test_header_roundtrip;
      Alcotest.test_case "record: version gate" `Quick test_header_version_gate;
      Alcotest.test_case "record: entry round-trip" `Quick test_entry_roundtrip;
      Alcotest.test_case "record: recorder sinks" `Quick test_recorder_sink;
      Alcotest.test_case "record: read restores arrival order" `Quick
        test_read_restores_arrival_order;
      Alcotest.test_case "ledger: accounting and exposition" `Quick
        test_ledger_accounting;
      Alcotest.test_case "ledger: ring reuse" `Quick test_ledger_ring_reuse;
      Alcotest.test_case "e2e: capture and replay byte identity" `Quick
        test_capture_replay_byte_identity;
      qcheck_shuffled_replay;
      Alcotest.test_case "e2e: LEDGER scrape and metrics families" `Quick
        test_ledger_scrape_and_metrics;
      Alcotest.test_case "top: zero-window frame" `Quick
        test_console_zero_window;
      Alcotest.test_case "e2e: replay skips writes rejected at capture" `Quick
        test_replay_skips_rejected_write;
      Alcotest.test_case "e2e: recorder, event log, ledger and STATS agree"
        `Quick test_observers_agree;
      Alcotest.test_case "e2e: committed older recording replays byte-identically"
        `Quick test_fixture_replays_byte_identically;
    ] )

(* The flight recorder (Tkr_rec / Tkr_replay): recording format
   round-trips and version gating, the per-fingerprint resource ledger
   (ring reuse, hit ratios, quantiles, scrape/OpenMetrics shapes),
   capture through a live server, deterministic replay byte-identity
   over a 4-session interleaved DML workload with the cache on and off
   (alcotest + a qcheck shuffle of cross-session arrival order), the
   LEDGER scrape surface, the zero-window [tkr_cli top] frame, replay
   leaving unsent the writes the capture server rejected, a paced
   replay, replay against a stand-in server (a connection that dies
   mid-replay, more sessions than [select] can watch at once), and the
   recorder, event log, ledger and STATS agreeing on every request. *)

module M = Tkr_middleware.Middleware
module Wire = Tkr_serve.Wire
module Server = Tkr_serve.Server
module Client = Tkr_serve.Client
module Console = Tkr_serve.Console
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
      ~record:(Jsonl.Fn (fun j -> lines := j :: !lines))
      ()
  in
  check "fresh recorder enabled" true (Record.recording r);
  check "no log view" false (Record.logging r);
  check "disabled recorder is off" false (Record.recording Record.disabled);
  Record.write Record.disabled sample_entry;
  Record.write r sample_entry;
  Record.write r { sample_entry with Record.e_seq = 8 };
  check_int "two entries recorded" 2 (Record.recorded r);
  Record.close r;
  Record.close r;
  check "closed recorder disabled" false (Record.recording r);
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
  let r = Record.create ~record:(Jsonl.Chan oc) () in
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

let with_rec_server ?(cache_mb = 16) ?stream f =
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
      ?stream m
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
  let stream =
    Record.create
      ~header:(Record.header ~workload:"employee" ~source:"test" ())
      ~record:(Jsonl.Chan oc) ()
  in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  (* close the stream only after [with_rec_server] has run Server.stop:
     entries are written by the connection threads after the response
     is sent, so the last ones land during the stop drain (production
     does the same — tkr_cli closes the stream after the server has
     stopped) *)
  Fun.protect ~finally:(fun () -> Record.close stream) @@ fun () ->
  with_rec_server ~stream @@ fun _m srv ->
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

let replay_against ?paced ~cache_mb entries =
  with_rec_server ~cache_mb @@ fun _m srv ->
  Replay.run ?paced ~port:(Server.port srv) entries

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
  let stream = Record.create ~log:(Jsonl.Fn ignore) () in
  with_rec_server ~stream @@ fun _m srv ->
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
  let stream = Record.create ~record:(Jsonl.Chan oc) () in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      Fun.protect ~finally:(fun () -> Record.close stream) @@ fun () ->
      with_rec_server ~stream @@ fun _m srv ->
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

(* ---- replay: the recorded tempo, and a connection that dies ---- *)

(* three requests captured 0.1 s apart: a paced replay holds each until
   its recorded offset, so it takes at least the 0.2 s they spanned *)
let test_paced_replay () =
  let path = Filename.temp_file "tkr_rec_paced" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out path in
  let stream = Record.create ~record:(Jsonl.Chan oc) () in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      Fun.protect ~finally:(fun () -> Record.close stream) @@ fun () ->
      with_rec_server ~stream @@ fun _m srv ->
      Client.with_client ~port:(Server.port srv) @@ fun c ->
      List.iteri
        (fun i stmt ->
          if i > 0 then Thread.delay 0.1;
          ignore (Client.run_exn c stmt))
        [ "INSERT INTO kv VALUES (1)"; "SELECT x FROM kv"; "SELECT x FROM kv" ]);
  let _, entries = Record.read_file path in
  check_int "three requests recorded" 3 (List.length entries);
  let o = replay_against ~paced:true ~cache_mb:16 entries in
  check "paced replay identical" true (Replay.identical o);
  check "paced replay kept the recorded tempo (>= 0.2 s)" true
    (o.Replay.wall_ns >= 0.2e9)

(* a stand-in server: it greets each of [connections] connections and
   answers every request with one fixed ok frame.  With [~dies_after:k],
   the first connection it accepts reads [k] requests, answers the first
   and closes: the replay has sent all [k] by then, so the client sees
   one reply and then a clean end of stream.  Every socket gives up
   after 10 s without a request, so a replay that hangs fails the test
   instead of wedging the suite, and reads through a 64 KiB receive
   buffer, so a request of several MiB holds its writer until the
   stand-in reads it. *)
let fixed_payload = Wire.body_to_payload (Wire.Message "ok")

let with_fixed_server ?dies_after ~connections f =
  let lfd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lfd Unix.SO_REUSEADDR true;
  Unix.setsockopt_float lfd Unix.SO_RCVTIMEO 10.0;
  Unix.setsockopt_int lfd Unix.SO_RCVBUF 65536;
  Unix.bind lfd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lfd 8;
  let port =
    match Unix.getsockname lfd with Unix.ADDR_INET (_, p) -> p | _ -> 0
  in
  let reply fd frame =
    let req = Wire.request_of_json (Json.of_string frame) in
    Wire.write_frame fd
      (Wire.ok_frame ~id:req.Wire.id ~cached:false ~elapsed_us:0 fixed_payload)
  in
  let serve i fd =
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
    let rec loop () =
      match Wire.read_frame fd with
      | Some frame ->
          reply fd frame;
          loop ()
      | None -> ()
    in
    (try
       Wire.write_frame fd (Wire.greeting_frame ~session_id:(i + 1));
       match dies_after with
       | Some k when i = 0 ->
           let first = Wire.read_frame fd in
           for _ = 2 to k do
             ignore (Wire.read_frame fd)
           done;
           Option.iter (reply fd) first
       | _ -> loop ()
     with Unix.Unix_error _ | Wire.Protocol_error _ -> ());
    Unix.close fd
  in
  let acceptor =
    Thread.create
      (fun () ->
        let rec accept i served =
          if i = connections then served
          else
            match Unix.accept ~cloexec:true lfd with
            | fd, _ -> accept (i + 1) (Thread.create (serve i) fd :: served)
            | exception Unix.Unix_error _ -> served
        in
        List.iter Thread.join (accept 0 []))
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Thread.join acceptor;
      Unix.close lfd)
    (fun () -> f port)

(* an entry whose recorded reply is the stand-in's fixed frame: a read
   when it has [deps], else a write (a barrier) *)
let fixed_entry seq session deps =
  {
    sample_entry with
    Record.e_seq = seq;
    e_session = session;
    e_req_id = seq + 1;
    e_stmt = (if deps = [] then "INSERT INTO kv VALUES (1)" else "SELECT x FROM kv");
    e_arrive_ns = Int64.of_int seq;
    e_deadline_ms = None;
    e_status = "ok";
    e_cached = false;
    e_disposition = (if deps = [] then "write" else "miss");
    e_deps = deps;
    e_digest = Record.digest fixed_payload;
  }

(* session 1 sends three reads and its connection dies after the first
   reply; session 2 then sends a read, a write (a barrier) and a read.
   The write must not wait for the dead session, the replay must return,
   and session 2's entries must all match *)
let test_replay_survives_a_dying_connection () =
  let entry = fixed_entry and read = [ ("kv", 1) ] in
  let entries =
    [
      entry 0 1 read; entry 1 1 read; entry 2 1 read;
      entry 3 2 read; entry 4 2 []; entry 5 2 read;
    ]
  in
  let o =
    with_fixed_server ~dies_after:3 ~connections:2 (fun port ->
        Replay.run ~port entries)
  in
  check_int "two sessions" 2 o.Replay.sessions;
  check_int "the dead session's two unanswered reads failed" 2 o.Replay.failed;
  check_int "the first reply and the live session compared" 4 o.Replay.compared;
  check_int "every compared entry matched" 4 o.Replay.matched;
  check "not identical" false (Replay.identical o)

(* session 1 sends a read, then a read of 8 MiB, which fills the
   socket and holds the replay in its write; the stand-in answers the
   first and hangs up without reading the second, so that write fails
   with the first reply unread in the socket.  That reply still counts:
   only the unanswered read fails, and session 2 goes on *)
let test_replay_reads_replies_before_closing () =
  let read = [ ("kv", 1) ] in
  let big =
    {
      (fixed_entry 1 1 read) with
      Record.e_stmt = "SELECT x FROM kv WHERE x = '" ^ String.make (8 lsl 20) 'x' ^ "'";
    }
  in
  let entries = [ fixed_entry 0 1 read; big; fixed_entry 2 2 read ] in
  let o =
    with_fixed_server ~dies_after:1 ~connections:2 (fun port ->
        Replay.run ~port entries)
  in
  check_int "only the unanswered read failed" 1 o.Replay.failed;
  check_int "the reply read before closing and session 2 compared" 2 o.Replay.compared;
  check_int "both matched" 2 o.Replay.matched

(* 600 one-read sessions: more than select's 1,024 descriptors would
   hold if every connection, and the server's end of each, were open at
   once *)
let test_replay_many_sessions () =
  let n = 600 in
  let entries = List.init n (fun i -> fixed_entry i i [ ("kv", 1) ]) in
  let o = with_fixed_server ~connections:n (fun port -> Replay.run ~port entries) in
  check_int "every session replayed" n o.Replay.sessions;
  check_int "every entry matched" n o.Replay.matched;
  check "identical" true (Replay.identical o)

(* ---- one record, many observers: the stream's two views, the ledger
   and the STATS counters tell the same story ---- *)

let jstr j key =
  Option.value ~default:"" (Option.bind (Json.member key j) Json.to_string_opt)

let is_event name j = jstr j "event" = name

(* a sink that keeps its lines; the server's threads write concurrently *)
let collector () =
  let lock = Mutex.create () and lines = ref [] in
  ( Jsonl.Fn
      (fun j ->
        Mutex.lock lock;
        lines := j :: !lines;
        Mutex.unlock lock),
    fun () -> List.rev !lines )

let test_observers_agree () =
  let log, logged = collector () and record, recorded = collector () in
  let stream = Record.create ~log ~record () in
  let stats, ledger_count =
    with_rec_server ~stream @@ fun _m srv ->
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
  Record.close stream;
  let entries =
    List.filter_map
      (fun j ->
        if Json.member "stmt" j = None then None
        else Some (Record.entry_of_json j))
      (recorded ())
  in
  let finishes = List.filter (is_event "request_finish") (logged ()) in
  check_int "one entry per request" 5 (List.length entries);
  check_int "one request_finish per request" 5 (List.length finishes);
  (* each log line is its recorded entry, field by field *)
  List.iter
    (fun (e : Record.entry) ->
      check "entry has a trace id" true (e.Record.e_trace_id <> None);
      match List.filter (fun j -> jint j "seq" = e.Record.e_seq) finishes with
      | [ f ] -> (
          check "log line reads back as the entry" true
            (Record.entry_of_json f = e);
          match Record.entry_to_json e with
          | Json.Obj fields ->
              List.iter
                (fun (k, v) ->
                  check
                    (Printf.sprintf "%s of seq %d" k e.Record.e_seq)
                    true
                    (Json.member k f = Some v))
                fields
          | _ -> Alcotest.fail "an entry is an object")
      | fs ->
          Alcotest.fail
            (Printf.sprintf "%d request_finish lines for seq %d"
               (List.length fs) e.Record.e_seq))
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

(* ---- a request refused at admission is recorded like any other ---- *)

(* One execution slot and the gate's minimum queue of one waiter: while a
   write holds the slot, blocked on the catalog's writer mutex, and a
   read waits for the slot, a second read is refused SERVER_BUSY.  The
   refusal is an entry with disposition "rejected" in the recording, the
   ledger and the STATS counters, and replay keeps it unsent. *)
let test_refused_request_recorded () =
  let record, recorded = collector () in
  let stream = Record.create ~record () in
  let m = fresh_mw () in
  let srv =
    Server.start
      ~config:
        { Server.default_config with port = 0; workers = 1; queue_depth = 0 }
      ~stream m
  in
  let read = "SELECT x FROM kv" in
  let held = Semaphore.Binary.make false and go = Semaphore.Binary.make false in
  let writer_held =
    Thread.create
      (fun () ->
        Tkr_engine.Database.serialized (M.database m) (fun _ ->
            Semaphore.Binary.release held;
            Semaphore.Binary.acquire go))
      ()
  in
  Semaphore.Binary.acquire held;
  let stats, ledger =
    Fun.protect
      ~finally:(fun () ->
        Semaphore.Binary.release go;
        Thread.join writer_held;
        Server.stop srv)
    @@ fun () ->
    let port = Server.port srv in
    let in_thread sql =
      Thread.create
        (fun () -> Client.with_client ~port (fun c -> ignore (Client.run_exn c sql)))
        ()
    in
    Client.with_client ~port (fun c ->
        (* HEALTH answers without a slot *)
        let await key =
          let give_up = Unix.gettimeofday () +. 10. in
          while
            jint (Json.of_string (msg_body (Client.run_exn c "HEALTH"))) key < 1
          do
            if Unix.gettimeofday () > give_up then
              Alcotest.failf "HEALTH %s never reached 1" key;
            Thread.delay 0.002
          done
        in
        let write = in_thread "INSERT INTO kv VALUES (1)" in
        await "inflight";
        let waiting = in_thread read in
        await "queue_depth";
        (match (Client.run c read).Wire.body with
        | Error { Wire.code = Wire.Server_busy; _ } -> ()
        | _ -> Alcotest.fail "expected SERVER_BUSY");
        Semaphore.Binary.release go;
        Thread.join write;
        Thread.join waiting);
    Server.stop srv;
    (Server.stats_json srv, Ledger.rows (Server.ledger srv))
  in
  Record.close stream;
  let entries =
    List.filter_map
      (fun j ->
        if Json.member "stmt" j = None then None
        else Some (Record.entry_of_json j))
      (recorded ())
  in
  check_int "every request recorded" 3 (List.length entries);
  let refused =
    match
      List.filter (fun e -> e.Record.e_disposition = "rejected") entries
    with
    | [ e ] -> e
    | es -> Alcotest.failf "%d rejected entries" (List.length es)
  in
  check_str "refused status" "SERVER_BUSY" refused.Record.e_status;
  check_str "refused statement" read refused.Record.e_stmt;
  (match List.filter (fun r -> r.Ledger.r_fp = refused.Record.e_fp) ledger with
  | [ r ] -> check "the ledger counts the refusal as an error" true (r.Ledger.r_errors >= 1)
  | _ -> Alcotest.fail "the refused request has no ledger row");
  check_int "STATS requests" 3 (jint stats "requests");
  check_int "STATS busy" 1 (jint stats "busy");
  check_int "STATS errors" 1 (jint stats "errors");
  let o = replay_against ~cache_mb:16 [ refused ] in
  check_int "replay keeps the refusal unsent" 1 o.Replay.skipped;
  check "replay identical" true (Replay.identical o)

(* ---- the log view ---- *)

(* a log-only stream with a pinned clock: mono 0 and a fixed wall
   clock, so envelope fields are exact *)
let test_log_envelope_and_fields () =
  let log, lines = collector () in
  let stream =
    Record.create ~clock:(fun () -> 0L) ~wall:(fun () -> 1234.5) ~log ()
  in
  check "log view on" true (Record.logging stream);
  check "no recording view" false (Record.recording stream);
  let entry status =
    { sample_entry with Record.e_seq = Record.next_seq stream; e_status = status }
  in
  Record.emit stream (Record.Conn_open { sid = 7 });
  Record.emit stream
    (Record.Request_start
       { sid = 7; req = 3; trace_id = Some "t7-1"; stmt = "SELECT 1" });
  let ok = entry "ok" in
  Record.write stream ok;
  Record.emit stream (Record.Admission_reject { sid = 7; reason = "busy" });
  let failed = entry "PARSE_ERROR" in
  Record.write stream failed;
  Record.emit stream (Record.Drain { reason = "stop" });
  match lines () with
  | [ open_; start; finish; reject; error; drain ] ->
      (* envelope: pinned wall clock in exact integer ms; every line
         takes the stream's next seq, an entry's line its entry's *)
      check_int "ts_ms" 1_234_500 (jint open_ "ts_ms");
      check_int "mono_ns" 0 (jint open_ "mono_ns");
      Alcotest.(check (list int))
        "seq" [ 0; 1; 2; 3; 4; 5 ]
        (List.map (fun j -> jint j "seq") [ open_; start; finish; reject; error; drain ]);
      Alcotest.(check (list string))
        "events"
        [ "conn_open"; "request_start"; "request_finish"; "admission_reject";
          "request_finish"; "drain" ]
        (List.map (fun j -> jstr j "event") (lines ()));
      Alcotest.(check (list string))
        "severities"
        [ "debug"; "debug"; "info"; "warn"; "error"; "info" ]
        (List.map (fun j -> jstr j "severity") (lines ()));
      (* sid and req are named as in the entry *)
      check_int "open sid" 7 (jint open_ "sid");
      check_int "start sid" 7 (jint start "sid");
      check_int "start req" 3 (jint start "req");
      check_str "start trace" "t7-1" (jstr start "trace_id");
      check_str "start stmt" "SELECT 1" (jstr start "stmt");
      check_str "reject reason" "busy" (jstr reject "reason");
      check_str "drain reason" "stop" (jstr drain "reason");
      (* a request_finish line is its entry *)
      check "finish is the entry" true (Record.entry_of_json finish = ok);
      check "error is the entry" true (Record.entry_of_json error = failed);
      check_int "nothing dropped" 0 (Record.dropped stream);
      check_int "nothing recorded" 0 (Record.recorded stream)
  | l -> Alcotest.fail (Printf.sprintf "expected 6 lines, got %d" (List.length l))

let test_disabled_is_free () =
  check "no views is the shared disabled stream" true
    (Record.create () == Record.disabled);
  check "no log" false (Record.logging Record.disabled);
  check "no recording" false (Record.recording Record.disabled);
  Record.emit Record.disabled (Record.Drain { reason = "test" });
  Record.write Record.disabled sample_entry;
  Record.close Record.disabled;
  check_int "nothing recorded" 0 (Record.recorded Record.disabled);
  check_int "nothing dropped" 0 (Record.dropped Record.disabled);
  check "nothing stopped" true (Record.stopped Record.disabled = [])

(* the log view writes at most 5,000 lines a second and says what it
   dropped; the recording view writes every entry *)
let test_log_rate_limit () =
  let now = ref 0L in
  let logged = ref [] and log_lines = ref 0 and recorded = ref 0 in
  let stream =
    Record.create
      ~clock:(fun () -> !now)
      ~wall:(fun () -> 0.)
      ~log:
        (Jsonl.Fn
           (fun j ->
             incr log_lines;
             if !log_lines > 4_999 then logged := j :: !logged))
      ~record:(Jsonl.Fn (fun _ -> incr recorded))
      ()
  in
  for _ = 1 to 5_003 do
    Record.write stream
      { sample_entry with Record.e_seq = Record.next_seq stream }
  done;
  check_int "log ceiling" 5_000 !log_lines;
  check_int "excess dropped" 3 (Record.dropped stream);
  check_int "the recording is complete" 5_003 (Record.recorded stream);
  check_int "header and every entry" 5_004 !recorded;
  (* rolling the window announces the drops on a synthetic line, then
     admits lines again *)
  now := 1_000_000_000L;
  Record.emit stream (Record.Drain { reason = "stop" });
  match List.rev !logged with
  | [ _last_admitted; announce; after ] ->
      check_str "synthetic line" "rate_limited" (jstr announce "event");
      check_str "announced as a warning" "warn" (jstr announce "severity");
      check_int "announced drops" 3 (jint announce "dropped");
      check_str "window reopened" "drain" (jstr after "event");
      check "announcement takes a seq" true
        (jint after "seq" > jint announce "seq")
  | l -> Alcotest.fail (Printf.sprintf "expected 3 lines, got %d" (List.length l))

let test_close () =
  let log, lines = collector () in
  let stream = Record.create ~log () in
  Record.emit stream (Record.Drain { reason = "stop" });
  Record.close stream;
  Record.close stream (* idempotent *);
  check "closed reads off" false (Record.logging stream);
  Record.emit stream (Record.Drain { reason = "after close" });
  Record.write stream sample_entry;
  check_int "no lines after close" 1 (List.length (lines ()));
  check "closing is not a failure" true (Record.stopped stream = [])

(* ---- a failing sink stops its view, never the server ---- *)

(* a raw connection whose reads give up after 5 s: a server that never
   answers fails the test instead of hanging the suite *)
let dial port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let read_reply fd =
  match Wire.read_frame fd with
  | Some frame -> frame
  | None -> Alcotest.fail "the server closed the connection"
  | exception e ->
      Alcotest.fail ("no reply within 5 s: " ^ Printexc.to_string e)

let served ~port stmts =
  let fd = dial port in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  (match Wire.greeting_of_string (read_reply fd) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e.Wire.message);
  List.iteri
    (fun i stmt ->
      let id = i + 1 in
      Wire.write_frame fd
        (Json.to_string (Wire.request_to_json (Wire.request ~id stmt)));
      let rsp = Wire.response_of_string (read_reply fd) in
      check_int "reply id" id rsp.Wire.rsp_id;
      match rsp.Wire.body with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (stmt ^ ": " ^ e.Wire.message))
    stmts

let test_failing_sink view () =
  let calls = ref 0 in
  let failing =
    (* the recording's header goes through; every later line fails *)
    Jsonl.Fn
      (fun _ ->
        incr calls;
        if view = "log" || !calls > 1 then raise (Sys_error "disk full"))
  in
  let stream =
    if view = "log" then Record.create ~log:failing ()
    else Record.create ~record:failing ()
  in
  with_rec_server ~stream (fun _m srv ->
      let port = Server.port srv in
      served ~port
        [ "INSERT INTO kv VALUES (1)"; "SELECT x FROM kv"; "SELECT x FROM kv" ];
      served ~port [ "SELECT x FROM kv" ];
      Server.stop srv);
  (match Record.stopped stream with
  | [ (v, err) ] ->
      check_str "the failing view stopped" view v;
      check "with its error" true (contains err "disk full")
  | l -> Alcotest.fail (Printf.sprintf "%d views stopped" (List.length l)));
  check "the view is off" false
    (if view = "log" then Record.logging stream else Record.recording stream)

(* ---- the stream projects onto every kind of the former event log ---- *)

(* An employee workload captured through the log view: the ten queries
   twice (hits), a write (a new epoch, then invalidations), the queries
   again, a parse error, two reads too big to share a 1 MiB cache (an
   eviction) and a dial past the session limit (a reject).  Every kind
   the event log had, with its fields, is rebuilt from the stream and
   the cache's own counters. *)
let test_stream_projects_event_kinds () =
  let log, logged = collector () in
  let stream = Record.create ~log () in
  let m = M.create ~db:(W.generate { (W.scaled 150) with W.tmax = 2000 }) () in
  let srv =
    Server.start
      ~config:
        { Server.default_config with port = 0; cache_mb = 1; max_sessions = 1 }
      ~stream m
  in
  let queries = List.map snd Q.employee in
  (Fun.protect ~finally:(fun () -> Server.stop srv) @@ fun () ->
   Client.with_client ~port:(Server.port srv) (fun c ->
       let run q = ignore (Client.run_exn c q) in
       List.iter run queries;
       List.iter run queries;
       (match Client.connect ~port:(Server.port srv) () with
       | exception Client.Server_error { Wire.code = Wire.Session_limit; _ } -> ()
       | _ -> Alcotest.fail "expected SESSION_LIMIT");
       run "INSERT INTO salaries VALUES (1, 1000000, 0, 10)";
       List.iter run queries;
       (match (Client.run c "SELEC x").Wire.body with
       | Error { Wire.code = Wire.Parse_error; _ } -> ()
       | _ -> Alcotest.fail "expected PARSE_ERROR");
       run "SELECT a.emp_no FROM salaries a, employees b";
       run "SELECT a.salary FROM salaries a, employees b"));
  Record.close stream;
  let lines = logged () in
  let kind name = List.filter (is_event name) lines in
  let entries =
    List.sort
      (fun a b -> compare a.Record.e_seq b.Record.e_seq)
      (List.map Record.entry_of_json (kind "request_finish"))
  in
  let int k v = (k, Json.Int v) and str k v = (k, Json.Str v) in
  let tid (e : Record.entry) =
    str "trace_id" (Option.value ~default:"" e.e_trace_id)
  in
  (* a lifecycle line's fields under the former log's names *)
  let lifecycle name renames =
    List.map
      (fun j ->
        List.map
          (fun (was, now) ->
            (was, Option.value ~default:Json.Null (Json.member now j)))
          renames)
      (kind name)
  in
  let where p f = List.map f (List.filter p entries) in
  let disp d (e : Record.entry) = e.e_disposition = d in
  let hits = where (disp "hit") (fun e -> [ str "fingerprint" e.e_fp ]) in
  let misses = where (disp "miss") (fun e -> [ str "fingerprint" e.e_fp ]) in
  (* consecutive executions of one plan whose dependency vector moved *)
  let invalidations =
    let last = Hashtbl.create 16 in
    List.concat_map
      (fun (e : Record.entry) ->
        if not (disp "hit" e || disp "miss" e) then []
        else
          let before = Hashtbl.find_opt last e.e_fp in
          Hashtbl.replace last e.e_fp e.e_deps;
          match before with
          | Some deps when deps <> e.e_deps ->
              List.filter_map
                (fun (t, v) ->
                  if List.mem (t, v) deps then None
                  else Some [ str "table" t; int "version" v ])
                e.e_deps
          | _ -> [])
      entries
  in
  (* a write publishes a new epoch, and its entry carries it *)
  let _, epoch_bumps =
    List.fold_left
      (fun (prev, acc) (e : Record.entry) ->
        ( e.e_epoch,
          if e.e_epoch > prev then [ int "epoch" e.e_epoch ] :: acc else acc ))
      ((List.hd entries).e_epoch, [])
      entries
  in
  let slowest =
    List.fold_left (fun acc (e : Record.entry) -> max acc e.e_total_us) 0 entries
  in
  let cs = Server.cache_stats srv in
  let rebuilt =
    [
      ("conn_open", lifecycle "conn_open" [ ("session", "sid") ]);
      ("conn_close", lifecycle "conn_close" [ ("session", "sid") ]);
      ( "request_start",
        lifecycle "request_start"
          [ ("session", "sid"); ("id", "req"); ("trace_id", "trace_id");
            ("stmt", "stmt") ] );
      ( "request_finish",
        where (fun _ -> true) (fun e ->
            [ int "session" e.e_session; int "id" e.e_req_id; tid e;
              str "status" e.e_status; ("cached", Json.Bool e.e_cached);
              int "elapsed_us" e.e_total_us ]) );
      ("cache_hit", hits);
      ("cache_miss", misses);
      ( "cache_evict",
        if cs.Tkr_serve.Cache.evictions > 0 then
          [ [ int "count" cs.Tkr_serve.Cache.evictions ] ]
        else [] );
      ("invalidation", invalidations);
      ( "admission_reject",
        lifecycle "admission_reject" [ ("session", "sid"); ("reason", "reason") ] );
      ("epoch_bump", epoch_bumps);
      ("drain", lifecycle "drain" [ ("reason", "reason") ]);
      ( "slow_query",
        where (fun e -> e.e_total_us >= slowest) (fun e ->
            [ tid e; str "fingerprint" e.e_fp; str "stmt" e.e_stmt;
              int "queue_us" e.e_queue_us; int "exec_us" e.e_exec_us;
              int "total_us" e.e_total_us; str "disposition" e.e_disposition ]) );
    ]
  in
  (* the former log's twelve kinds and the fields each line carried *)
  List.iter
    (fun (name, fields) ->
      let events = List.assoc name rebuilt in
      check (name ^ " found") true (events <> []);
      List.iter
        (fun ev ->
          Alcotest.(check (list string)) (name ^ " fields") fields (List.map fst ev);
          List.iter
            (fun (k, v) ->
              check (name ^ "." ^ k ^ " present") true
                (v <> Json.Null && v <> Json.Str ""))
            ev)
        events)
    [
      ("conn_open", [ "session" ]);
      ("conn_close", [ "session" ]);
      ("request_start", [ "session"; "id"; "trace_id"; "stmt" ]);
      ( "request_finish",
        [ "session"; "id"; "trace_id"; "status"; "cached"; "elapsed_us" ] );
      ("cache_hit", [ "fingerprint" ]);
      ("cache_miss", [ "fingerprint" ]);
      ("cache_evict", [ "count" ]);
      ("invalidation", [ "table"; "version" ]);
      ("admission_reject", [ "session"; "reason" ]);
      ("epoch_bump", [ "epoch" ]);
      ("drain", [ "reason" ]);
      ( "slow_query",
        [ "trace_id"; "fingerprint"; "stmt"; "queue_us"; "exec_us";
          "total_us"; "disposition" ] );
    ];
  (* the projections agree with the cache's own counts and the workload *)
  check_int "hits" cs.Tkr_serve.Cache.hits (List.length hits);
  check_int "misses" cs.Tkr_serve.Cache.misses (List.length misses);
  check "the write's entry carries the new epoch" true
    (List.exists
       (fun (e : Record.entry) ->
         String.starts_with ~prefix:"INSERT" e.e_stmt
         && List.mem [ int "epoch" e.e_epoch ] epoch_bumps)
       entries);
  check "the parse error is an entry" true
    (List.exists (fun (e : Record.entry) -> e.e_status = "PARSE_ERROR") entries)

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
      Alcotest.test_case "e2e: a paced replay keeps the recorded tempo" `Quick
        test_paced_replay;
      Alcotest.test_case "replay: a dying connection ends the replay" `Quick
        test_replay_survives_a_dying_connection;
      Alcotest.test_case "replay: a failed write reads the replies already sent"
        `Quick test_replay_reads_replies_before_closing;
      Alcotest.test_case "replay: more sessions than select's descriptors" `Quick
        test_replay_many_sessions;
      Alcotest.test_case "e2e: recorder, event log, ledger and STATS agree"
        `Quick test_observers_agree;
      Alcotest.test_case "e2e: a request refused at admission is recorded"
        `Quick test_refused_request_recorded;
      Alcotest.test_case "log: envelope and event fields" `Quick
        test_log_envelope_and_fields;
      Alcotest.test_case "log: disabled stream is a no-op" `Quick
        test_disabled_is_free;
      Alcotest.test_case "log: rate limiting" `Quick test_log_rate_limit;
      Alcotest.test_case "log: close" `Quick test_close;
      Alcotest.test_case "e2e: a failing log sink stops the log, not the server"
        `Quick (test_failing_sink "log");
      Alcotest.test_case
        "e2e: a failing recording sink stops the recording, not the server"
        `Quick (test_failing_sink "record");
      Alcotest.test_case "e2e: the stream projects onto every event-log kind"
        `Quick test_stream_projects_event_kinds;
      Alcotest.test_case "e2e: committed older recording replays byte-identically"
        `Quick test_fixture_replays_byte_identically;
    ] )

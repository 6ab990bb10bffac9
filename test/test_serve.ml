(* The query server (Tkr_serve): wire-protocol round-trips, the
   snapshot-aware result cache (hits, version invalidation, LRU
   eviction), per-table version counters, admission-control semantics,
   thread-safety of one shared middleware hammered from four domains
   (alcotest + qcheck op mix), and end-to-end server/client byte-identity
   against in-process execution with the cache on and off. *)

module Value = Tkr_relation.Value
module Schema = Tkr_relation.Schema
module Tuple = Tkr_relation.Tuple
module Table = Tkr_engine.Table
module Database = Tkr_engine.Database
module M = Tkr_middleware.Middleware
module Wire = Tkr_serve.Wire
module Cache = Tkr_serve.Cache
module Admission = Tkr_serve.Admission
module Server = Tkr_serve.Server
module Client = Tkr_serve.Client
module Json = Tkr_obs.Json
module Tel = Tkr_tel.Tel
module W = Tkr_workload.Employees
module Q = Tkr_workload.Queries

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ---- wire protocol ---- *)

let sample_table () =
  let schema =
    Schema.make
      [
        Schema.attr "ok" Value.TBool;
        Schema.attr "n" Value.TInt;
        Schema.attr "x" Value.TFloat;
        Schema.attr "s" Value.TStr;
      ]
  in
  Table.of_array schema
    [|
      Tuple.of_array
        [| Value.Bool true; Value.Int 42; Value.Float 0.1; Value.Str "a b" |];
      Tuple.of_array
        [| Value.Null; Value.Int (-7); Value.Float 1e-300; Value.Str "" |];
      Tuple.of_array
        [|
          Value.Bool false; Value.Null; Value.Float (-3.75); Value.Str "q'z";
        |];
    |]

let test_wire_table_roundtrip () =
  let t = sample_table () in
  let j = Wire.table_to_json t in
  let t' = Wire.table_of_json (Json.of_string (Json.to_string j)) in
  check "schema survives" true (Table.schema t' = Table.schema t);
  check "rows survive exactly (incl. floats and nulls)" true
    (Array.for_all2 Tuple.equal (Table.rows t) (Table.rows t'));
  (* the payload is the cache's stored unit: serializing again must give
     the same bytes, or cached responses would not be byte-identical *)
  check_str "payload bytes are stable"
    (Wire.body_to_payload (Wire.Rows t))
    (Wire.body_to_payload (Wire.Rows t'))

let test_wire_frames () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let close fd = try Unix.close fd with Unix.Unix_error _ -> () in
  Fun.protect ~finally:(fun () -> close a; close b) @@ fun () ->
  Wire.write_frame a "hello";
  Wire.write_frame a "";
  Wire.write_frame a (String.make 100_000 'x');
  check "frame 1" true (Wire.read_frame b = Some "hello");
  check "empty frame" true (Wire.read_frame b = Some "");
  check "large frame" true (Wire.read_frame b = Some (String.make 100_000 'x'));
  Unix.close a;
  check "clean EOF is None" true (Wire.read_frame b = None)

(* a peer announcing a max-size frame that then stalls must not make the
   reader allocate the announced length up front *)
let test_wire_stalled_frame () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let close fd = try Unix.close fd with Unix.Unix_error _ -> () in
  Fun.protect ~finally:(fun () -> close a; close b) @@ fun () ->
  let hdr = Bytes.create 4 in
  Bytes.set_int32_be hdr 0 (Int32.of_int Wire.max_frame);
  ignore (Unix.write a hdr 0 4);
  ignore (Unix.write_substring a "0123456789" 0 10);
  Unix.close a;
  let before = Gc.allocated_bytes () in
  (match Wire.read_frame b with
  | _ -> Alcotest.fail "expected a truncated-frame error"
  | exception Wire.Protocol_error msg ->
      Alcotest.(check string) "error" "truncated frame" msg);
  let allocated = Gc.allocated_bytes () -. before in
  if allocated >= 1024. *. 1024. then
    Alcotest.failf "read of a stalled frame allocated %.0f bytes" allocated

let test_wire_request_response () =
  let req = Wire.request ~id:7 ~deadline_ms:250 ~trace:true "SELECT 1" in
  let req' =
    Wire.request_of_json (Json.of_string (Json.to_string (Wire.request_to_json req)))
  in
  check "request round-trips" true (req' = req);
  (* the trace-id field round-trips when present and is absent otherwise *)
  let traced = Wire.request ~id:8 ~trace_id:"t1-9" "SELECT 2" in
  let traced' =
    Wire.request_of_json
      (Json.of_string (Json.to_string (Wire.request_to_json traced)))
  in
  check "trace id round-trips" true (traced'.Wire.trace_id = Some "t1-9");
  check "no trace id by default" true (req.Wire.trace_id = None);
  let t = sample_table () in
  let payload = Wire.body_to_payload (Wire.Rows t) in
  let frame = Wire.ok_frame ~id:7 ~cached:true ~elapsed_us:12 payload in
  let rsp = Wire.response_of_string frame in
  check_int "response id" 7 rsp.Wire.rsp_id;
  check "response cached flag" true rsp.Wire.cached;
  check "response without trace id" true (rsp.Wire.rsp_trace_id = None);
  let traced_frame =
    Wire.ok_frame ~id:7 ~cached:true ~elapsed_us:12 ~trace_id:"t1-9" payload
  in
  check "response trace id" true
    ((Wire.response_of_string traced_frame).Wire.rsp_trace_id = Some "t1-9");
  (* the splice leaves the payload bytes untouched: minus the trace_id
     field the frames are identical, so cached responses stay
     byte-identical whether or not telemetry is on *)
  check "traced frame is the plain frame plus one field" true
    (String.length traced_frame
     = String.length frame + String.length ",\"trace_id\":\"t1-9\"");
  (match rsp.Wire.body with
  | Ok (Wire.Rows t') ->
      check "response rows" true
        (Array.for_all2 Tuple.equal (Table.rows t) (Table.rows t'))
  | _ -> Alcotest.fail "expected rows");
  let ef_traced =
    Wire.error_frame ~id:3 ~trace_id:"t2-4"
      { Wire.code = Wire.Server_busy; message = "queue full" }
  in
  check "error frame trace id" true
    ((Wire.response_of_string ef_traced).Wire.rsp_trace_id = Some "t2-4");
  let ef =
    Wire.error_frame ~id:3
      { Wire.code = Wire.Server_busy; message = "queue full" }
  in
  match (Wire.response_of_string ef).Wire.body with
  | Error { Wire.code = Wire.Server_busy; message = "queue full" } -> ()
  | _ -> Alcotest.fail "expected SERVER_BUSY error"

(* ---- result cache ---- *)

let test_cache_hit_and_invalidation () =
  let c = Cache.create ~max_bytes:10_000 in
  let deps = [ ("works", 1); ("emp", 3) ] in
  check "miss on empty" true (Cache.find c ~key:"k" ~deps = None);
  ignore (Cache.add c ~key:"k" ~deps "payload-bytes");
  check "hit on same versions" true
    (Cache.find c ~key:"k" ~deps = Some "payload-bytes");
  (* dependency order must not matter *)
  check "hit is order-insensitive" true
    (Cache.find c ~key:"k" ~deps:(List.rev deps) = Some "payload-bytes");
  (* a bumped version invalidates exactly this entry *)
  ignore (Cache.add c ~key:"other" ~deps:[ ("salaries", 2) ] "other-bytes");
  check "stale versions invalidate" true
    (Cache.find c ~key:"k" ~deps:[ ("works", 2); ("emp", 3) ] = None);
  check "unrelated entry survives" true
    (Cache.find c ~key:"other" ~deps:[ ("salaries", 2) ] = Some "other-bytes");
  let s = Cache.stats c in
  check_int "one invalidation" 1 s.Cache.invalidations;
  check_int "entries" 1 s.Cache.entries

let test_cache_lru_eviction () =
  let c = Cache.create ~max_bytes:30 in
  check_int "no eviction adding a" 0
    (Cache.add c ~key:"a" ~deps:[] (String.make 10 'a'));
  check_int "no eviction adding b" 0
    (Cache.add c ~key:"b" ~deps:[] (String.make 10 'b'));
  check_int "no eviction adding c" 0
    (Cache.add c ~key:"c" ~deps:[] (String.make 10 'c'));
  (* touch a so b is the least recently used *)
  check "a hits" true (Cache.find c ~key:"a" ~deps:[] <> None);
  check_int "adding d evicts one" 1
    (Cache.add c ~key:"d" ~deps:[] (String.make 10 'd'));
  check "LRU victim b evicted" true (Cache.find c ~key:"b" ~deps:[] = None);
  check "recently used a survives" true (Cache.find c ~key:"a" ~deps:[] <> None);
  check "newest d present" true (Cache.find c ~key:"d" ~deps:[] <> None);
  let s = Cache.stats c in
  check_int "one eviction" 1 s.Cache.evictions;
  check "byte budget holds" true (s.Cache.bytes <= 30);
  (* a payload alone above the budget is not stored *)
  check_int "oversized add evicts nothing" 0
    (Cache.add c ~key:"huge" ~deps:[] (String.make 100 'h'));
  check "oversized payload not stored" true
    (Cache.find c ~key:"huge" ~deps:[] = None);
  (* disabled cache: every lookup misses, add is a no-op *)
  let off = Cache.create ~max_bytes:0 in
  check_int "disabled add is a no-op" 0 (Cache.add off ~key:"k" ~deps:[] "p");
  check "disabled cache never hits" true (Cache.find off ~key:"k" ~deps:[] = None);
  check "disabled reports disabled" false (Cache.enabled off)

let test_cache_invalidate_table () =
  let c = Cache.create ~max_bytes:10_000 in
  ignore (Cache.add c ~key:"q1" ~deps:[ ("works", 1) ] "p1");
  ignore (Cache.add c ~key:"q2" ~deps:[ ("works", 1); ("emp", 1) ] "p2");
  ignore (Cache.add c ~key:"q3" ~deps:[ ("emp", 1) ] "p3");
  check_int "two entries dropped" 2 (Cache.invalidate_table c "WORKS");
  check "q3 survives" true (Cache.find c ~key:"q3" ~deps:[ ("emp", 1) ] <> None);
  check_int "entries after" 1 (Cache.stats c).Cache.entries

(* ---- per-table version counters ---- *)

let test_database_versions () =
  let db = Database.create () in
  check_int "unknown name is version 0" 0 (Database.version db "t");
  let schema = Schema.make [ Schema.attr "x" Value.TInt ] in
  let row n = Tuple.of_array [| Value.Int n |] in
  Database.add_table db "t" (Table.of_array schema [| row 1 |]);
  check_int "load bumps" 1 (Database.version db "t");
  Database.append_rows db "t" [ row 2 ];
  check_int "insert bumps" 2 (Database.version db "t");
  Database.set_rows db "t" [| row 9 |];
  check_int "update bumps" 3 (Database.version db "t");
  check_int "case-insensitive" 3 (Database.version db "T");
  Database.remove_table db "t";
  check_int "drop bumps, never resets" 4 (Database.version db "t");
  Database.add_table db "t" (Table.of_array schema [| row 1 |]);
  check_int "reload continues monotone" 5 (Database.version db "t")

(* ---- middleware epoch (prepared-plan staleness signal) ---- *)

let test_middleware_epoch () =
  let m = M.create () in
  let e0 = M.epoch m in
  ignore (M.execute m "CREATE TABLE ee (x int)");
  let e1 = M.epoch m in
  check "DDL bumps the epoch" true (e1 > e0);
  ignore (M.execute m "INSERT INTO ee VALUES (1)");
  let e2 = M.epoch m in
  check "DML bumps the epoch" true (e2 > e1);
  ignore (M.query m "SELECT x FROM ee");
  check_int "queries leave the epoch unchanged" e2 (M.epoch m);
  let schema = Schema.make [ Schema.attr "x" Value.TInt ] in
  Database.add_table (M.database m) "direct" (Table.of_array schema [||]);
  check "direct database mutation bumps the epoch" true (M.epoch m > e2)

(* ---- admission control ---- *)

let test_admission_busy_and_drain () =
  let q = Admission.create ~depth:2 in
  check "accept 1" true (Admission.submit q 1 = `Accepted);
  check "accept 2" true (Admission.submit q 2 = `Accepted);
  check "high-water rejects" true (Admission.submit q 3 = `Busy);
  check "take 1" true (Admission.take q = Some 1);
  check "freed capacity accepts" true (Admission.submit q 4 = `Accepted);
  Admission.drain q;
  check "draining rejects new work" true (Admission.submit q 5 = `Draining);
  (* accepted work is still handed out after drain *)
  check "drain hands out queued work" true (Admission.take q = Some 2);
  check "drain hands out queued work" true (Admission.take q = Some 4);
  check "dry after drain is None" true (Admission.take q = None)

let test_admission_drain_wakes_takers () =
  let q = Admission.create ~depth:4 in
  let got = Atomic.make `Waiting in
  let th =
    Thread.create
      (fun () ->
        Atomic.set got
          (match Admission.take q with Some _ -> `Job | None -> `Drained))
      ()
  in
  Thread.delay 0.05;
  Admission.drain q;
  Thread.join th;
  check "blocked taker wakes with None" true (Atomic.get got = `Drained)

(* ---- middleware hammered from four domains ---- *)

let hammer_queries =
  [ Q.lookup "join-1" Q.employee; Q.lookup "agg-1" Q.employee ]

let test_middleware_domain_hammer () =
  let m = M.create ~db:(W.generate { (W.scaled 40) with W.tmax = 600 }) () in
  (* serial reference results, computed before the hammer *)
  let expected = List.map (fun sql -> M.query m sql) hammer_queries in
  let runs_before = (M.totals m).M.runs in
  let per_domain = 5 in
  let mismatches = Atomic.make 0 in
  let work () =
    List.iter2
      (fun sql want ->
        let p = M.prepare m sql in
        for _ = 1 to per_domain do
          let got = M.run_prepared m p in
          if
            not
              (Array.length (Table.rows got) = Array.length (Table.rows want)
              && Array.for_all2 Tuple.equal (Table.rows got) (Table.rows want))
          then Atomic.incr mismatches
        done)
      hammer_queries expected
  in
  let domains = List.init 4 (fun _ -> Domain.spawn work) in
  List.iter Domain.join domains;
  check_int "every concurrent result matches the serial reference" 0
    (Atomic.get mismatches);
  (* totals are mutex-guarded: no lost updates under contention *)
  check_int "totals.runs counted every execution"
    (runs_before + (4 * per_domain * List.length hammer_queries))
    (M.totals m).M.runs

let test_middleware_dml_hammer () =
  let m = M.create () in
  ignore
    (M.execute_script m
       {|CREATE TABLE h0 (x int); CREATE TABLE h1 (x int);
         CREATE TABLE q0 (x int); INSERT INTO q0 VALUES (1), (2), (3);|});
  let inserts = 25 in
  let writer k () =
    for i = 1 to inserts do
      ignore
        (M.execute m (Printf.sprintf "INSERT INTO h%d VALUES (%d)" k i))
    done
  in
  let errors = Atomic.make 0 in
  let reader () =
    for _ = 1 to 40 do
      match M.query m "SELECT x FROM q0" with
      | t -> if Table.cardinality t <> 3 then Atomic.incr errors
      | exception _ -> Atomic.incr errors
    done
  in
  let domains =
    [ Domain.spawn (writer 0); Domain.spawn (writer 1); Domain.spawn reader;
      Domain.spawn reader ]
  in
  List.iter Domain.join domains;
  check_int "readers always saw a consistent catalog" 0 (Atomic.get errors);
  check_int "writer 0 rows all landed" inserts
    (Table.cardinality (M.query m "SELECT x FROM h0"));
  check_int "writer 1 rows all landed" inserts
    (Table.cardinality (M.query m "SELECT x FROM h1"));
  check "versions bumped once per DML" true
    (Database.version (M.database m) "h0" >= inserts)

(* qcheck: a random mix of concurrent per-domain inserts and shared-table
   queries keeps the middleware consistent — each domain's private table
   ends with exactly its own inserts, and shared reads never tear *)
let qcheck_op_mix =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:15 ~name:"concurrent op mix keeps middleware consistent"
       QCheck.(list_of_size (Gen.int_range 1 12) (QCheck.int_range 0 2))
       (fun ops ->
         let m = M.create () in
         ignore
           (M.execute_script m
              {|CREATE TABLE s (x int); INSERT INTO s VALUES (10), (20);|});
         let n_domains = 4 in
         List.iteri
           (fun k _ ->
             ignore (M.execute m (Printf.sprintf "CREATE TABLE p%d (x int)" k)))
           (List.init n_domains Fun.id);
         let bad = Atomic.make false in
         let work k () =
           let mine = ref 0 in
           List.iter
             (fun op ->
               match op with
               | 0 ->
                   incr mine;
                   ignore
                     (M.execute m
                        (Printf.sprintf "INSERT INTO p%d VALUES (%d)" k !mine))
               | 1 ->
                   if Table.cardinality (M.query m "SELECT x FROM s") <> 2 then
                     Atomic.set bad true
               | _ -> (
                   match
                     M.query m (Printf.sprintf "SELECT x FROM p%d" k)
                   with
                   | t ->
                       if Table.cardinality t <> !mine then Atomic.set bad true
                   | exception _ -> Atomic.set bad true))
             ops;
           if
             Table.cardinality (M.query m (Printf.sprintf "SELECT x FROM p%d" k))
             <> !mine
           then Atomic.set bad true
         in
         let domains = List.init n_domains (fun k -> Domain.spawn (work k)) in
         List.iter Domain.join domains;
         not (Atomic.get bad)))

(* ---- end-to-end: server + client ---- *)

(* the queries the acceptance gate cares about: EXCEPT ALL (bag
   difference) and aggregations, plus a join *)
let e2e_queries =
  List.map
    (fun n -> (n, Q.lookup n Q.employee))
    [ "join-1"; "agg-1"; "agg-3"; "diff-1"; "diff-2" ]

let with_server ?(cache_mb = 16) ?(tel = Tel.disabled) f =
  let m = M.create ~db:(W.generate { (W.scaled 40) with W.tmax = 600 }) () in
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
      ~tel m
  in
  Fun.protect ~finally:(fun () -> Server.stop srv) (fun () -> f m srv)

let render = function
  | M.Rows t -> Table.to_text ~max_rows:1000 t
  | M.Done msg -> msg ^ "\n"

let render_rsp (rsp : Wire.response) =
  match rsp.Wire.body with
  | Ok (Wire.Rows t) -> Table.to_text ~max_rows:1000 t
  | Ok (Wire.Message msg) -> msg ^ "\n"
  | Error e -> Alcotest.fail ("unexpected server error: " ^ e.Wire.message)

let test_e2e_byte_identity_cached () =
  with_server @@ fun m srv ->
  let expected = List.map (fun (_, sql) -> render (M.execute m sql)) e2e_queries in
  Client.with_client ~port:(Server.port srv) @@ fun c ->
  List.iter2
    (fun (name, sql) want ->
      let first = Client.run_exn c sql in
      check (name ^ " first run not cached") false first.Wire.cached;
      check_str (name ^ " cold bytes") want (render_rsp first);
      let second = Client.run_exn c sql in
      check (name ^ " replay is a cache hit") true second.Wire.cached;
      check_str (name ^ " cached bytes identical") want (render_rsp second))
    e2e_queries expected;
  let s = Server.cache_stats srv in
  check "cache saw the hits" true (s.Cache.hits >= List.length e2e_queries)

let test_e2e_byte_identity_cache_off () =
  with_server ~cache_mb:0 @@ fun m srv ->
  let expected = List.map (fun (_, sql) -> render (M.execute m sql)) e2e_queries in
  Client.with_client ~port:(Server.port srv) @@ fun c ->
  List.iter2
    (fun (name, sql) want ->
      let a = Client.run_exn c sql in
      let b = Client.run_exn c sql in
      check (name ^ " never cached") false (a.Wire.cached || b.Wire.cached);
      check_str (name ^ " bytes (1)") want (render_rsp a);
      check_str (name ^ " bytes (2)") want (render_rsp b))
    e2e_queries expected

let test_e2e_concurrent_clients () =
  with_server @@ fun m srv ->
  let expected = List.map (fun (_, sql) -> render (M.execute m sql)) e2e_queries in
  let port = Server.port srv in
  let n_clients = 8 in
  let bad = Atomic.make 0 in
  let worker () =
    try
      Client.with_client ~port @@ fun c ->
      List.iter2
        (fun (_, sql) want ->
          if render_rsp (Client.run_exn c sql) <> want then Atomic.incr bad)
        e2e_queries expected
    with _ -> Atomic.incr bad
  in
  let threads = List.init n_clients (fun _ -> Thread.create worker ()) in
  List.iter Thread.join threads;
  check_int "8 concurrent connections, all byte-identical" 0 (Atomic.get bad)

let test_e2e_dml_invalidates () =
  with_server @@ fun _m srv ->
  Client.with_client ~port:(Server.port srv) @@ fun c ->
  ignore (Client.run_exn c "CREATE TABLE kv (x int)");
  ignore (Client.run_exn c "INSERT INTO kv VALUES (1), (2)");
  let q = "SELECT x FROM kv" in
  let r1 = Client.run_exn c q in
  check "cold" false r1.Wire.cached;
  let r2 = Client.run_exn c q in
  check "warm" true r2.Wire.cached;
  ignore (Client.run_exn c "INSERT INTO kv VALUES (3)");
  let r3 = Client.run_exn c q in
  check "DML invalidated the entry" false r3.Wire.cached;
  (match r3.Wire.body with
  | Ok (Wire.Rows t) -> check_int "new row visible" 3 (Table.cardinality t)
  | _ -> Alcotest.fail "expected rows");
  let r4 = Client.run_exn c q in
  check "re-cached after recompute" true r4.Wire.cached;
  check_int "one invalidation recorded" 1
    (Server.cache_stats srv).Cache.invalidations

(* A session's cached prepared plan bakes catalog state: snapshot plans
   bake the time bounds of prepare time, AS OF timeslices bake schema
   arities.  After DML that extends the time bounds, or DROP+CREATE that
   changes a schema, re-executing the same statement text on the same
   connection must return the bytes a fresh preparation computes — the
   session must notice the stale plan and re-prepare. *)
let test_e2e_session_reprepare () =
  with_server @@ fun m srv ->
  Client.with_client ~port:(Server.port srv) @@ fun c ->
  ignore (Client.run_exn c "CREATE TABLE ep (x int, b int, e int) PERIOD (b, e)");
  ignore (Client.run_exn c "INSERT INTO ep VALUES (1, 0, 10)");
  (* count-per-snapshot: the rewrite constructs whole-domain rows from
     the tmin/tmax of prepare time, so a stale plan is visibly wrong *)
  let agg = "SEQ VT (SELECT count(*) AS cnt FROM ep)" in
  let slice = "SEQ VT AS OF 5 (SELECT x FROM ep)" in
  check_str "snapshot agg before DML" (render (M.execute m agg))
    (render_rsp (Client.run_exn c agg));
  check_str "timeslice before DML" (render (M.execute m slice))
    (render_rsp (Client.run_exn c slice));
  (* extend the time domain well past the baked tmax *)
  ignore (Client.run_exn c "INSERT INTO ep VALUES (2, 5, 5000)");
  check_str "snapshot agg after time bounds moved (re-prepared)"
    (render (M.execute m agg))
    (render_rsp (Client.run_exn c agg));
  (* change the table's schema arity underneath the cached plans *)
  ignore (Client.run_exn c "DROP TABLE ep");
  ignore
    (Client.run_exn c "CREATE TABLE ep (x int, y int, b int, e int) PERIOD (b, e)");
  ignore (Client.run_exn c "INSERT INTO ep VALUES (7, 8, 0, 20)");
  check_str "snapshot agg after DROP+CREATE (re-prepared)"
    (render (M.execute m agg))
    (render_rsp (Client.run_exn c agg));
  check_str "timeslice after DROP+CREATE (re-prepared)"
    (render (M.execute m slice))
    (render_rsp (Client.run_exn c slice))

(* Pipelined requests on one connection: the server must execute them in
   arrival order (an INSERT is visible to the SELECT behind it) and reply
   in request order, even with a pool of workers *)
let test_e2e_pipelined_ordering () =
  with_server @@ fun _m srv ->
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  let close () = try Unix.close fd with Unix.Unix_error _ -> () in
  Fun.protect ~finally:close @@ fun () ->
  Unix.connect fd
    (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", Server.port srv));
  (match Wire.read_frame fd with
  | Some _ -> ()
  | None -> Alcotest.fail "no greeting");
  let send id stmt =
    Wire.write_frame fd
      (Json.to_string (Wire.request_to_json (Wire.request ~id stmt)))
  in
  let inserts = 10 in
  (* fire everything without reading a single response *)
  send 1 "CREATE TABLE pipe (x int)";
  for i = 1 to inserts do
    send (1 + i) (Printf.sprintf "INSERT INTO pipe VALUES (%d)" i)
  done;
  send (inserts + 2) "SELECT x FROM pipe";
  let read_rsp expect_id =
    match Wire.read_frame fd with
    | None -> Alcotest.fail "server closed mid-pipeline"
    | Some frame ->
        let rsp = Wire.response_of_string frame in
        check_int "responses arrive in request order" expect_id rsp.Wire.rsp_id;
        rsp
  in
  for i = 1 to inserts + 1 do
    match (read_rsp i).Wire.body with
    | Ok _ -> ()
    | Error e -> Alcotest.fail ("pipelined statement failed: " ^ e.Wire.message)
  done;
  match (read_rsp (inserts + 2)).Wire.body with
  | Ok (Wire.Rows t) ->
      check_int "pipelined SELECT sees every prior INSERT" inserts
        (Table.cardinality t)
  | Ok _ -> Alcotest.fail "expected rows"
  | Error e -> Alcotest.fail ("pipelined SELECT failed: " ^ e.Wire.message)

let test_e2e_error_codes () =
  with_server @@ fun _m srv ->
  Client.with_client ~port:(Server.port srv) @@ fun c ->
  (match (Client.run c "SELEC nonsense").Wire.body with
  | Error { Wire.code = Wire.Parse_error; _ } -> ()
  | _ -> Alcotest.fail "expected PARSE_ERROR");
  (match (Client.run c "SELECT x FROM missing").Wire.body with
  | Error { Wire.code = Wire.Runtime_error; _ } -> ()
  | _ -> Alcotest.fail "expected RUNTIME_ERROR");
  (* deadline 0: always already expired when a worker picks it up *)
  match (Client.run ~deadline_ms:0 c "SELECT x FROM missing").Wire.body with
  | Error { Wire.code = Wire.Deadline_exceeded; _ } -> ()
  | _ -> Alcotest.fail "expected DEADLINE_EXCEEDED"

let test_e2e_session_limit () =
  let m = M.create () in
  let srv =
    Server.start
      ~config:{ Server.default_config with port = 0; max_sessions = 1 }
      m
  in
  Fun.protect ~finally:(fun () -> Server.stop srv) @@ fun () ->
  Client.with_client ~port:(Server.port srv) @@ fun _c1 ->
  match Client.connect ~port:(Server.port srv) () with
  | c2 ->
      Client.close c2;
      Alcotest.fail "expected SESSION_LIMIT rejection"
  | exception Client.Server_error { Wire.code = Wire.Session_limit; _ } -> ()

let test_e2e_graceful_stop () =
  let m = M.create () in
  let srv = Server.start ~config:{ Server.default_config with port = 0 } m in
  let c = Client.connect ~port:(Server.port srv) () in
  ignore (Client.run_exn c "CREATE TABLE g (x int)");
  (* stop with a connection open: accepted work finished, reader woken *)
  Server.stop srv;
  check "stop is idempotent" true (Server.stopping srv);
  Server.stop srv;
  (match Client.run c "SELECT x FROM g" with
  | _ -> ()
  | exception _ -> () (* connection torn down by drain is fine *));
  Client.close c

(* ---- telemetry e2e: every request's log lines carry the trace id the
   response echoed, cache dispositions and invalidations are logged, and
   the scrape commands answer on a live connection ---- *)

let contains hay needle =
  let n = String.length hay and m = String.length needle in
  let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
  go 0

let jstr j key =
  match Option.bind (Json.member key j) Json.to_string_opt with
  | Some s -> s
  | None -> Alcotest.fail (Printf.sprintf "missing string field %s" key)

let msg_body (rsp : Wire.response) =
  match rsp.Wire.body with
  | Ok (Wire.Message m) -> m
  | _ -> Alcotest.fail "expected a message body"

let test_e2e_telemetry () =
  let lock = Mutex.create () in
  let events = ref [] in
  let tel =
    Tel.create
      (Tel.Fn
         (fun j ->
           Mutex.lock lock;
           events := j :: !events;
           Mutex.unlock lock))
  in
  let miss_id = ref "" and hit_id = ref "" in
  (with_server ~tel @@ fun _m srv ->
   Client.with_client ~port:(Server.port srv) @@ fun c ->
   (* a client-supplied trace id echoes on the response *)
   let r1 = Client.run_exn ~trace_id:"cli-1" c "CREATE TABLE kv (x int)" in
   check "client trace id echoed" true (r1.Wire.rsp_trace_id = Some "cli-1");
   ignore (Client.run_exn c "INSERT INTO kv VALUES (1), (2)");
   let q = "SELECT x FROM kv" in
   let miss = Client.run_exn c q in
   let hit = Client.run_exn c q in
   check "warm replay cached" true hit.Wire.cached;
   (* the server mints ids when the client sends none *)
   (match (miss.Wire.rsp_trace_id, hit.Wire.rsp_trace_id) with
   | Some a, Some b ->
       miss_id := a;
       hit_id := b;
       check "generated ids distinct" true (a <> b)
   | _ -> Alcotest.fail "expected server-generated trace ids");
   (* invalidate the cached entry so the log sees it *)
   ignore (Client.run_exn c "INSERT INTO kv VALUES (3)");
   check "post-DML replay recomputes" false (Client.run_exn c q).Wire.cached;
   (* scrape surface, all on the same connection *)
   let metrics = msg_body (Client.run_exn c "METRICS") in
   List.iter
     (fun needle -> check ("metrics has " ^ needle) true (contains metrics needle))
     [
       "# TYPE serve_queue_depth gauge";
       "serve_inflight_requests";
       "serve_sessions 1";
       "serve_cache_entries";
       "serve_cache_bytes";
       "uptime_seconds";
       "tkr_build_info";
       "tkr_idx_built";
       "tkr_idx_probes";
       "# EOF\n";
     ];
   let health = Json.of_string (msg_body (Client.run_exn c "health")) in
   check_str "health ready" "ready" (jstr health "status");
   let stats = Json.of_string (msg_body (Client.run_exn c "STATS")) in
   let requests =
     match Option.bind (Json.member "requests" stats) Json.to_int_opt with
     | Some n -> n
     | None -> Alcotest.fail "stats missing requests"
   in
   check "stats counted the requests" true (requests >= 5);
   check "stats have latency quantiles" true
     (Json.member "latency_us" stats <> None);
   match Json.member "index" stats with
   | Some idx ->
       check "stats index enabled flag" true
         (Json.member "enabled" idx = Some (Json.Bool true));
       check "stats index counters present" true
         (Json.member "built" idx <> None && Json.member "probes" idx <> None)
   | None -> Alcotest.fail "stats missing index object");
  (* the server is stopped: the log is complete *)
  let evs = List.rev !events in
  let by name = List.filter (fun j -> jstr j "event" = name) evs in
  let ids name = List.sort_uniq compare (List.map (fun j -> jstr j "trace_id") (by name)) in
  check "conn_open logged" true (by "conn_open" <> []);
  check "conn_close logged" true (by "conn_close" <> []);
  (* every request_start pairs with a request_finish on the same id, and
     the ids the responses carried are among them *)
  Alcotest.(check (list string))
    "start/finish ids pair" (ids "request_start") (ids "request_finish");
  let finish_ids = ids "request_finish" in
  List.iter
    (fun id -> check ("response id " ^ id ^ " logged") true (List.mem id finish_ids))
    [ "cli-1"; !miss_id; !hit_id ];
  (* cache disposition events share one plan fingerprint *)
  (match (by "cache_miss", by "cache_hit") with
  | miss :: _, [ hit ] ->
      check_str "fingerprints match" (jstr miss "fingerprint")
        (jstr hit "fingerprint")
  | _ -> Alcotest.fail "expected cache_miss and exactly one cache_hit");
  (* the post-cache INSERT shows up as an invalidation on the dep table *)
  check "invalidation logged for kv" true
    (List.exists (fun j -> jstr j "table" = "kv") (by "invalidation"));
  check "ddl bumped the epoch" true (by "epoch_bump" <> []);
  (match by "drain" with
  | [ d ] -> check_str "drain reason" "stop" (jstr d "reason")
  | _ -> Alcotest.fail "expected one drain event")

let test_e2e_no_trace_when_tel_off () =
  with_server @@ fun _m srv ->
  Client.with_client ~port:(Server.port srv) @@ fun c ->
  ignore (Client.run_exn c "CREATE TABLE plain (x int)");
  let r = Client.run_exn c "SELECT x FROM plain" in
  check "no trace id minted when telemetry is off" true
    (r.Wire.rsp_trace_id = None);
  (* a client-supplied id still echoes, telemetry or not *)
  let r2 = Client.run_exn ~trace_id:"want-this" c "SELECT x FROM plain" in
  check "client id echoes without telemetry" true
    (r2.Wire.rsp_trace_id = Some "want-this")

(* the latency histogram observes every finished request, errors and
   queued deadlines included, so STATS latency_us.count = requests *)
let test_e2e_latency_counts_every_request () =
  with_server @@ fun _m srv ->
  (Client.with_client ~port:(Server.port srv) @@ fun c ->
   ignore (Client.run_exn c "CREATE TABLE lat (x int)");
   (match (Client.run c "SELEC x").Wire.body with
   | Error { Wire.code = Wire.Parse_error; _ } -> ()
   | _ -> Alcotest.fail "expected PARSE_ERROR");
   match (Client.run ~deadline_ms:0 c "SELECT x FROM lat").Wire.body with
   | Error { Wire.code = Wire.Deadline_exceeded; _ } -> ()
   | _ -> Alcotest.fail "expected DEADLINE_EXCEEDED");
  (* the drain joins the workers: every request has been observed *)
  Server.stop srv;
  let stats = Server.stats_json srv in
  let int j key =
    match Option.bind (Json.member key j) Json.to_int_opt with
    | Some n -> n
    | None -> Alcotest.fail ("stats missing " ^ key)
  in
  check_int "requests" 3 (int stats "requests");
  match Json.member "latency_us" stats with
  | Some lat -> check_int "latency_us.count = requests" 3 (int lat "count")
  | None -> Alcotest.fail "stats missing latency_us"

let suite =
  ( "serve",
    [
      Alcotest.test_case "wire: table round-trip" `Quick test_wire_table_roundtrip;
      Alcotest.test_case "wire: frame I/O" `Quick test_wire_frames;
      Alcotest.test_case "wire: request/response" `Quick test_wire_request_response;
      Alcotest.test_case "cache: hit and version invalidation" `Quick
        test_cache_hit_and_invalidation;
      Alcotest.test_case "cache: LRU eviction and budget" `Quick
        test_cache_lru_eviction;
      Alcotest.test_case "cache: invalidate_table" `Quick
        test_cache_invalidate_table;
      Alcotest.test_case "database: version counters" `Quick
        test_database_versions;
      Alcotest.test_case "middleware: epoch staleness signal" `Quick
        test_middleware_epoch;
      Alcotest.test_case "admission: busy and drain" `Quick
        test_admission_busy_and_drain;
      Alcotest.test_case "admission: drain wakes takers" `Quick
        test_admission_drain_wakes_takers;
      Alcotest.test_case "middleware: 4-domain query hammer" `Quick
        test_middleware_domain_hammer;
      Alcotest.test_case "middleware: mixed DML hammer" `Quick
        test_middleware_dml_hammer;
      qcheck_op_mix;
      Alcotest.test_case "e2e: byte identity, cache on" `Quick
        test_e2e_byte_identity_cached;
      Alcotest.test_case "e2e: byte identity, cache off" `Quick
        test_e2e_byte_identity_cache_off;
      Alcotest.test_case "e2e: 8 concurrent clients" `Quick
        test_e2e_concurrent_clients;
      Alcotest.test_case "e2e: DML invalidates cache" `Quick
        test_e2e_dml_invalidates;
      Alcotest.test_case "e2e: stale session plans re-prepare" `Quick
        test_e2e_session_reprepare;
      Alcotest.test_case "e2e: pipelined per-session ordering" `Quick
        test_e2e_pipelined_ordering;
      Alcotest.test_case "e2e: typed error codes" `Quick test_e2e_error_codes;
      Alcotest.test_case "e2e: session limit" `Quick test_e2e_session_limit;
      Alcotest.test_case "e2e: graceful stop" `Quick test_e2e_graceful_stop;
      Alcotest.test_case "e2e: telemetry, trace ids, scrapes" `Quick
        test_e2e_telemetry;
      Alcotest.test_case "e2e: no trace ids when telemetry off" `Quick
        test_e2e_no_trace_when_tel_off;
      Alcotest.test_case "wire: stalled frame allocates what arrived" `Quick
        test_wire_stalled_frame;
      Alcotest.test_case "e2e: latency histogram counts every request" `Quick
        test_e2e_latency_counts_every_request;
    ] )

(* The benchmark program: one workload, one seed, one process.

     bench.exe --workload olap|serve|writes --seed N --seconds S --trace 0|1

   Prints a human-readable report, one [report {...}] JSON line with every
   metric (calibrated value, raw value and speed factor side by side) and
   the run's provenance, and as its last line the result object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1.  See README.md. *)

open Tkr_relation
module M = Tkr_middleware.Middleware
module Database = Tkr_engine.Database
module Table = Tkr_engine.Table
module Idx_cache = Tkr_engine.Idx_cache
module Server = Tkr_serve.Server
module Wire = Tkr_serve.Wire
module Cache = Tkr_serve.Cache
module Ledger = Tkr_rec.Ledger
module Json = Tkr_obs.Json
module Trace = Tkr_obs.Trace
module Stats = Tkr_idx.Stats

let now_ns = Calib.now_ns

(* ---- arguments ---- *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10
let trace = ref 0
let out_dir = ref "perfbench/out"

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "olap|serve|writes");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S nominal measured seconds (fixes the op count)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run or traced per-layer run");
      ("--out", Arg.Set_string out_dir, "DIR where the traced run writes spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload [ "olap"; "serve"; "writes" ]) then begin
    prerr_endline "bench: --workload must be olap, serve or writes";
    exit 2
  end

(* Op counts are fixed by --seconds through a nominal rate per workload,
   so both sides of a comparison execute exactly the same operations. *)
let olap_rounds () = max 3 (!seconds * 3)
let serve_reads () = max 2000 (!seconds * 1500)
let writes_pairs () = max 2000 (!seconds * 200)

(* ---- statistics ---- *)

let median = Calib.median

(* linear-interpolation quantile (Python's statistics "inclusive") *)
let quantile (a : float array) q =
  let b = Array.copy a in
  Array.sort compare b;
  let n = Array.length b in
  if n = 0 then nan
  else if n = 1 then b.(0)
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then b.(n - 1)
    else b.(i) +. ((pos -. float_of_int i) *. (b.(i + 1) -. b.(i)))

let geomean (a : float list) =
  exp (List.fold_left (fun s x -> s +. log x) 0. a /. float_of_int (List.length a))

(* ---- set-up: generate, load through SQL, warm ---- *)

let load () : M.t =
  let m = M.create ~db:(Database.create ~tmin:0 ~tmax:Gen.tmax ()) () in
  List.iter (fun s -> ignore (M.execute m s)) (Gen.catalog_script ());
  m

let build_indexes m =
  let db = M.database m in
  List.iter
    (fun n -> if Database.is_period db n then ignore (Idx_cache.get db n))
    (Database.names db)

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  (match Wire.read_frame fd with
  | Some g -> ( match Wire.greeting_of_string g with Ok _ -> () | Error _ -> failwith "rejected")
  | None -> failwith "no greeting");
  fd

(* one request: encode, send, wait, decode — the client-side read or write
   latency is this whole call; spans split it in the traced run *)
let roundtrip sp fd id stmt =
  let req = Wire.request ~id stmt in
  Spans.with_span sp "serve.request" @@ fun () ->
  (* one process: the server's threads run while this one waits, so only
     the whole round trip and the decode are attributable client-side *)
  Wire.write_frame fd (Json.to_string (Wire.request_to_json req));
  let frame =
    match Wire.read_frame fd with
    | Some f -> f
    | None -> failwith "server closed the connection"
  in
  let rsp = Spans.with_span sp "serve.decode" (fun () -> Wire.response_of_string frame) in
  (frame, rsp)

let server_config =
  {
    Server.default_config with
    port = 0;
    max_sessions = 4;
    queue_depth = 16;
    workers = 1;  (* one connection, one worker: the closed loop's width *)
  }

(* the statements a set-up prepares: olap its ten queries; serve sends
   its hot set through the server (first prepares in the session, cache
   filled); writes sends each read shape once *)
let warm_statements () =
  match !workload with
  | "olap" -> List.map snd (Array.to_list Gen.olap_queries)
  | "serve" ->
      List.map (fun ((r : Gen.read), _) -> Gen.as_of r.Gen.shape r.Gen.at) (Array.to_list Gen.hot)
  | _ ->
      Array.to_list
        (Array.map (fun (_, q) -> Printf.sprintf "SEQ VT AS OF 0 (%s)" q) Gen.write_reads)

type state = { m : M.t; srv : Server.t option; fd : Unix.file_descr option }

let teardown st =
  Option.iter Unix.close st.fd;
  Option.iter Server.stop st.srv

let setup () =
  let m = load () in
  build_indexes m;
  match !workload with
  | "olap" ->
      List.iter (fun q -> ignore (M.prepare m q)) (warm_statements ());
      { m; srv = None; fd = None }
  | _ ->
      let srv = Server.start ~config:server_config m in
      let fd = connect (Server.port srv) in
      let off = Spans.create ~on:false in
      List.iteri
        (fun i q -> ignore (roundtrip off fd (1_000_000 + i) q))
        (warm_statements ());
      { m; srv = Some srv; fd = Some fd }

let setup_reps = 7

(* [setup_reps] calibrated set-ups, each from a collected heap; the last
   one's state is kept for the run *)
let timed_setups () =
  let res = ref [] and last = ref None in
  for _ = 1 to setup_reps do
    Option.iter teardown !last;
    last := None;
    Gc.full_major ();
    let cal, raw, factor, st = Calib.timed_block setup in
    res := (cal, raw, factor) :: !res;
    last := Some st
  done;
  let pick f = median (Array.of_list (List.map f !res)) in
  ( Option.get !last,
    pick (fun (c, _, _) -> c),
    pick (fun (_, r, _) -> r),
    pick (fun (_, _, f) -> f) )

(* ---- one timed pass ---- *)

type kind = Read | Write

type sample = {
  cls : string;  (* statement class: query name, shape/disposition, DML kind *)
  kind : kind;
  raw_ns : float;
  win : int;  (* calibration window *)
  server_us : int;  (* server-reported elapsed, 0 in-process *)
}

type pass = {
  samples : sample array;
  factors : float array;
  readings : (int * float) list;  (* calibration: (window, kernel ns), newest first *)
  kernel_ms : float;
  wall_s : float;  (* raw wall time of the whole loop, kernel included *)
  alloc_words : float;
  major_collections : int;
  idx : Stats.snapshot;  (* counter deltas over the loop *)
  cache : Cache.stats option;
  queue_ms : float;  (* mean server queue wait per request *)
  failed : int;
  spans : Spans.t;
  opstats : op_acc;
}

(* operator-trace accounting: rows in/out per operator kind, index
   candidates and the rows they produced *)
and op_acc = {
  rows_in : (string, float) Hashtbl.t;
  rows_out : (string, float) Hashtbl.t;
  mutable candidates : float;
  mutable cand_rows : float;
}

let new_acc () =
  { rows_in = Hashtbl.create 16; rows_out = Hashtbl.create 16; candidates = 0.; cand_rows = 0. }

let op_kind (s : Trace.span) =
  let n = Trace.name s in
  match String.index_opt n '(' with Some i -> String.sub n 0 i | None -> n

let bump h k v = Hashtbl.replace h k (v +. Option.value ~default:0. (Hashtbl.find_opt h k))

let int_attr s k = match Trace.find_attr s k with Some (Trace.Int i) -> Some i | _ -> None

let account acc (root : Trace.span) =
  Trace.iter
    (fun s ->
      let k = op_kind s in
      Option.iter (fun v -> bump acc.rows_in k (float_of_int v)) (int_attr s "rows_in");
      Option.iter (fun v -> bump acc.rows_out k (float_of_int v)) (int_attr s "rows_out");
      (* index-answered operators only: joins report candidate pairs too *)
      match (Trace.find_attr s "access", int_attr s "candidates") with
      | Some (Trace.Str "index"), Some c ->
          acc.candidates <- acc.candidates +. float_of_int c;
          Option.iter (fun v -> acc.cand_rows <- acc.cand_rows +. float_of_int v) (int_attr s "rows_out")
      | _ -> ())
    root

(* run a prepared statement under an operator trace grafted into the span
   tree; the trace is accounted into [acc] *)
let execute_traced sp acc m p =
  Spans.with_span sp "middleware.execute" @@ fun () ->
  let obs = Trace.create () in
  let t = M.run_prepared ~obs m p in
  List.iter
    (fun r ->
      Spans.graft sp ~kind:(fun s -> "engine.op." ^ op_kind s) r;
      account acc r)
    (Trace.roots obs);
  t

(* The prepare pipeline as separate public calls, each in its own span:
   parse, static check, snapshot algebra, optimize, rewrite.  [seq_sql]
   is the statement's plain SEQ VT form (what the rewriter sees). *)
let decompose sp m ~sql ~seq_sql =
  let db = M.database m in
  let lookup n = Database.data_schema_of db n in
  ignore (Spans.with_span sp "sql.parse" (fun () -> Tkr_sql.Parser.statement sql));
  ignore (Spans.with_span sp "check.check" (fun () -> M.check m sql));
  let alg, _ =
    Spans.with_span sp "middleware.snapshot_algebra" (fun () -> M.snapshot_algebra m seq_sql)
  in
  ignore
    (Spans.with_span sp "engine.optimize" (fun () ->
         Tkr_engine.Optimizer.optimize
           ~stats:{ Tkr_engine.Optimizer.card = (fun n -> Table.cardinality (Database.find db n)) }
           ~lookup alg));
  let tmin, tmax = Database.time_bounds db in
  ignore
    (Spans.with_span sp "sqlenc.rewrite" (fun () ->
         Tkr_sqlenc.Rewriter.rewrite ~options:(M.options m) ~tmin ~tmax ~lookup alg))

let payload_of_table t = Wire.body_to_payload (Wire.Rows t)
let payload_of_result = function
  | M.Rows t -> Wire.body_to_payload (Wire.Rows t)
  | M.Done msg -> Wire.body_to_payload (Wire.Message msg)

let gc_words () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words, s.Gc.major_collections)

let idx_delta (a : Stats.snapshot) (b : Stats.snapshot) : Stats.snapshot =
  {
    Stats.s_built = b.Stats.s_built - a.Stats.s_built;
    s_rebuilds = b.Stats.s_rebuilds - a.Stats.s_rebuilds;
    s_probes = b.Stats.s_probes - a.Stats.s_probes;
    s_candidates = b.Stats.s_candidates - a.Stats.s_candidates;
  }

(* The timed loop shared by all workloads: [op i] runs operation [i] and
   returns its sample fields; a calibration reading is taken between
   operations when due. *)
let timed_loop ?(between = fun _ -> ()) ~n (op : int -> int -> sample) =
  let cal = Calib.create () in
  Calib.read cal;
  let words = ref 0. and majors = ref 0 in
  let i0 = Stats.snapshot () in
  let t0 = now_ns () in
  let samples =
    Array.init n (fun i ->
        between i;
        Calib.tick cal;
        (* GC counters around the op only: collections forced between ops
           and the calibration readings are not the program's *)
        let w0, m0 = gc_words () in
        let s = op i (Calib.window cal) in
        let w1, m1 = gc_words () in
        words := !words +. (w1 -. w0);
        majors := !majors + (m1 - m0);
        s)
  in
  Calib.read cal;
  let wall = (now_ns () -. t0) /. 1e9 in
  let idx = idx_delta i0 (Stats.snapshot ()) in
  (samples, cal, wall, !words, !majors, idx)

let pass_of_loop (samples, cal, wall, words, majors, idx) ~cache ~queue_ms ~failed ~spans
    ~opstats =
  {
    samples;
    factors = Calib.factors cal;
    readings = cal.Calib.readings;
    kernel_ms = Calib.kernel_ms cal;
    wall_s = wall;
    alloc_words = words;
    major_collections = majors;
    idx;
    cache;
    queue_ms;
    failed;
    spans;
    opstats;
  }

(* time [f] as one window *)
let timed f =
  let t0 = now_ns () in
  let r = f () in
  (now_ns () -. t0, r)

(* ---- olap ---- *)

let olap_pass ~traced st : pass =
  let m = st.m in
  let sp = Spans.create ~on:traced in
  let acc = new_acc () in
  let rounds = Gen.olap_rounds ~seed:!seed ~rounds:(olap_rounds ()) in
  let nq = Array.length Gen.olap_queries in
  (* the row oracle: row engine, index and prune off, same catalog *)
  let oracle = M.create ~index:false ~prune:false ~db:(M.database m) () in
  let expected = Array.map (fun (_, q) -> M.query oracle q) Gen.olap_queries in
  let expected_payload = Array.map payload_of_table expected in
  let failed = ref 0 in
  let run_query q =
    let sql = snd Gen.olap_queries.(q) in
    if traced then
      Spans.with_span sp "olap.query" (fun () ->
          let p = Spans.with_span sp "middleware.prepare" (fun () -> M.prepare m sql) in
          execute_traced sp acc m p)
    else M.query m sql
  in
  let checked_bytes = Array.make nq false in
  (* one untimed, untraced round first: first executions, the heap grows
     to size *)
  Array.iter (fun q -> ignore (M.query m (snd Gen.olap_queries.(q)))) rounds.(0);
  (* each query starts from a fully collected heap, so none pays for
     major-GC work an earlier one left behind — which otherwise makes a
     query's time depend on its position in the shuffled round *)
  let between _ = Gc.full_major () in
  let loop =
    timed_loop ~between ~n:(Array.length rounds * nq) (fun i win ->
        let q = rounds.(i / nq).(i mod nq) in
        let ns, t = timed (fun () -> run_query q) in
        (* correctness, outside the window: exact rows and order against the
           oracle on every execution, full payload bytes once per query *)
        let e = expected.(q) in
        let ok =
          compare (Table.rows t) (Table.rows e) = 0
          && Schema.names (Table.schema t) = Schema.names (Table.schema e)
          && (checked_bytes.(q) || (checked_bytes.(q) <- true; payload_of_table t = expected_payload.(q)))
        in
        if not ok then incr failed;
        { cls = fst Gen.olap_queries.(q); kind = Read; raw_ns = ns; win; server_us = 0 })
  in
  (* per-layer split of the prepare pipeline, outside the timed loop *)
  if traced then
    Array.iter
      (fun round ->
        Array.iter
          (fun q ->
            let sql = snd Gen.olap_queries.(q) in
            Spans.with_span sp "olap.decompose" (fun () -> decompose sp m ~sql ~seq_sql:sql))
          round)
      rounds;
  pass_of_loop loop ~cache:None ~queue_ms:0. ~failed:!failed ~spans:sp ~opstats:acc

(* ---- serve and writes: a closed loop over one TCP connection ---- *)

let ledger_queue_ms srv =
  let rows = Ledger.rows (Server.ledger srv) in
  let q = List.fold_left (fun a r -> a + r.Ledger.r_queue_us) 0 rows in
  let n = List.fold_left (fun a r -> a + r.Ledger.r_count) 0 rows in
  if n = 0 then 0. else float_of_int q /. float_of_int n /. 1e3

let cache_delta (a : Cache.stats) (b : Cache.stats) =
  {
    b with
    Cache.hits = b.Cache.hits - a.Cache.hits;
    misses = b.Cache.misses - a.Cache.misses;
    evictions = b.Cache.evictions - a.Cache.evictions;
    invalidations = b.Cache.invalidations - a.Cache.invalidations;
  }

type wire_op = { sql : string; cls : string; kind : kind }

(* Drive [ops] through an in-process server over loopback; returns the
   pass (without correctness) and per-op response payload digests
   ("" for an error response). *)
let wire_pass ~traced st (ops : wire_op array) =
  let sp = Spans.create ~on:traced in
  let srv = Option.get st.srv and fd = Option.get st.fd in
  let digests = Array.make (Array.length ops) "" in
  let cached = Array.make (Array.length ops) false in
  let errors = ref 0 in
  let c0 = Server.cache_stats srv in
  let loop =
    (* a major-GC slice every 50 ops, between them: without it, how much
       major work fell inside the ops moved serve's ops/s by ~7% between
       runs of the same seed.  (Forcing whole cycles instead steadied the
       times too, but inflated the heap peak up to tenfold.) *)
    timed_loop
      ~between:(fun i -> if i mod 50 = 0 then ignore (Gc.major_slice 0))
      ~n:(Array.length ops)
      (fun i win ->
        let o = ops.(i) in
        let ns, (frame, rsp) = timed (fun () -> roundtrip sp fd (i + 1) o.sql) in
        (match (rsp.Wire.body, Wire.ok_frame_payload frame) with
        | Ok _, Some payload -> digests.(i) <- Digest.string payload
        | _ -> incr errors);
        cached.(i) <- rsp.Wire.cached;
        let cls =
          if o.kind = Read && !workload = "serve" then
            o.cls ^ if rsp.Wire.cached then "/hit" else "/miss"
          else o.cls
        in
        { cls; kind = o.kind; raw_ns = ns; win; server_us = rsp.Wire.elapsed_us })
  in
  let cache = cache_delta c0 (Server.cache_stats srv) in
  let queue_ms = ledger_queue_ms srv in
  teardown st;
  ( pass_of_loop loop ~cache:(Some cache) ~queue_ms ~failed:!errors ~spans:sp
      ~opstats:(new_acc ()),
    digests,
    cached )

let inner_of_shape shape = snd Gen.serve_shapes.(shape)

let serve_pass ~traced st : pass =
  let m = st.m in
  let reads = Gen.serve_reads ~seed:!seed ~n:(serve_reads ()) in
  let ops =
    Array.map
      (fun (r : Gen.read) ->
        { sql = Gen.as_of r.Gen.shape r.Gen.at; cls = fst Gen.serve_shapes.(r.Gen.shape); kind = Read })
      reads
  in
  let p, digests, cached = wire_pass ~traced st ops in
  let sp = p.spans and acc = p.opstats in
  (* correctness: every response payload equals the in-process evaluation
     of its statement, rendered by Wire.body_to_payload *)
  let expect = Hashtbl.create 256 in
  let failed = ref 0 in
  Array.iteri
    (fun i (o : wire_op) ->
      let want =
        match Hashtbl.find_opt expect o.sql with
        | Some d -> d
        | None ->
            let d = Digest.string (payload_of_table (M.query m o.sql)) in
            Hashtbl.add expect o.sql d;
            d
      in
      if digests.(i) <> want then incr failed)
    ops;
  (* per-layer split of the misses (the requests that prepared or
     executed), replayed in-process with spans around each public call *)
  if traced then
    Array.iteri
      (fun i (o : wire_op) ->
        if not cached.(i) then begin
          let r = reads.(i) in
          let seq_sql = Printf.sprintf "SEQ VT (%s)" (inner_of_shape r.Gen.shape) in
          Spans.with_span sp "serve.miss" (fun () ->
              decompose sp m ~sql:o.sql ~seq_sql;
              let pr = Spans.with_span sp "middleware.prepare" (fun () -> M.prepare m o.sql) in
              let t = execute_traced sp acc m pr in
              ignore (Spans.with_span sp "serve.encode" (fun () -> payload_of_table t)))
        end)
      ops;
  { p with failed = p.failed + !failed }

let writes_pass ~traced st : pass =
  let m = st.m in
  let wops = Gen.writes_ops ~seed:!seed ~pairs:(writes_pairs ()) in
  let ops =
    Array.map
      (fun w ->
        { sql = Gen.wop_sql w; cls = Gen.wop_class w; kind = (if Gen.is_read w then Read else Write) })
      wops
  in
  let p, digests, _ = wire_pass ~traced st ops in
  let sp = p.spans and acc = p.opstats in
  (* correctness: replay the same sequence on a fresh in-process
     middleware over a freshly loaded catalog; every response and the
     final tables must match byte for byte *)
  let shadow = load () in
  let sdb = M.database shadow in
  let failed = ref 0 in
  Array.iteri
    (fun i w ->
      let sql = Gen.wop_sql w in
      let payload =
        match w with
        | Gen.Read (s, _) ->
            if traced then
              Spans.with_span sp "writes.read" (fun () ->
                  decompose sp shadow ~sql ~seq_sql:(Printf.sprintf "SEQ VT (%s)" (snd Gen.write_reads.(s)));
                  let pr = Spans.with_span sp "middleware.prepare" (fun () -> M.prepare shadow sql) in
                  let t = execute_traced sp acc shadow pr in
                  Spans.with_span sp "serve.encode" (fun () -> payload_of_table t))
            else payload_of_table (M.query shadow sql)
        | _ ->
            let r = Spans.with_span sp "engine.write" (fun () -> M.execute shadow sql) in
            (* the index rebuild the next read pays for *)
            if traced then
              ignore (Spans.with_span sp "idx.build" (fun () -> Idx_cache.get sdb "titles"));
            payload_of_result r
      in
      if Digest.string payload <> digests.(i) then incr failed)
    wops;
  let db = M.database m in
  List.iter
    (fun n ->
      let a = payload_of_table (Database.find db n) and b = payload_of_table (Database.find sdb n) in
      if a <> b then incr failed)
    (Database.names sdb);
  { p with failed = p.failed + !failed }

let run_pass ~traced st =
  match !workload with
  | "olap" -> olap_pass ~traced st
  | "serve" -> serve_pass ~traced st
  | _ -> writes_pass ~traced st

(* ---- metrics ---- *)

type metric = { name : string; unit_ : string; value : float; raw : float option }

let cal_ms (p : pass) (s : sample) = s.raw_ns /. p.factors.(s.win) /. 1e6
let raw_ms (s : sample) = s.raw_ns /. 1e6

let speed (p : pass) = median p.factors

let classes (p : pass) =
  let h = Hashtbl.create 16 in
  Array.iter
    (fun (s : sample) -> Hashtbl.replace h s.cls (s :: Option.value ~default:[] (Hashtbl.find_opt h s.cls)))
    p.samples;
  Hashtbl.fold (fun k v acc -> (k, Array.of_list v) :: acc) h []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let per_class_geomean p f q =
  geomean (List.map (fun (_, ss) -> quantile (Array.map f ss) q) (classes p))

(* olap's read percentiles.  A query runs too few times for an observed
   tail of its own (30 executions at 10 s: its p99 would be its maximum,
   one hiccup), and a percentile across the ten queries would jump
   between them.  So each query's [q] quantile is estimated from all its
   executions as median + z_q * 1.4826 * MAD (the normal quantile with a
   robust scale), and the metric is the geometric mean over queries. *)
let robust_quantile (a : float array) q =
  let med = quantile a 0.5 in
  let mad = quantile (Array.map (fun x -> Float.abs (x -. med)) a) 0.5 in
  let z = match q with 0.5 -> 0. | 0.99 -> 2.3263 | _ -> invalid_arg "robust_quantile" in
  med +. (z *. 1.4826 *. mad)

let per_class_robust p f q =
  geomean (List.map (fun (_, ss) -> robust_quantile (Array.map f ss) q) (classes p))

let pooled (p : pass) kind f q =
  let a = Array.of_list (List.filter_map (fun (s : sample) -> if s.kind = kind then Some (f s) else None) (Array.to_list p.samples)) in
  if Array.length a = 0 then nan else quantile a q

let busy (p : pass) f = Array.fold_left (fun acc (s : sample) -> acc +. f s) 0. p.samples

let mib words = words *. float_of_int (Sys.word_size / 8) /. 1048576.

let end_to_end ~setup p =
  let setup_cal, setup_raw, _ = setup in
  let n = float_of_int (Array.length p.samples) in
  let both name unit_ f = { name; unit_; value = f (cal_ms p); raw = Some (f raw_ms) } in
  let read_q q =
    if !workload = "olap" then fun f -> per_class_robust p f q else fun f -> pooled p Read f q
  in
  let heap = (Gc.quick_stat ()).Gc.top_heap_words in
  [
    { name = "setup_s"; unit_ = "s"; value = setup_cal; raw = Some setup_raw };
    both "ops_per_s" "1/s" (fun f -> n /. (busy p f /. 1e3));
    both "query_geomean_ms" "ms" (fun f -> per_class_geomean p f 0.5);
    both "read_p50_ms" "ms" (read_q 0.5);
    both "read_p99_ms" "ms" (read_q 0.99);
    { name = "heap_peak_mb"; unit_ = "MiB"; value = mib (float_of_int heap); raw = None };
  ]

(* reported and checked by the steadiness mode, but not listed in
   BENCHMARK.json, whose metrics every workload reports and never as 0:
   these exist on one workload only, or are 0 on correct code *)
let extras p =
  let w q f = pooled p Write f q in
  (if !workload = "writes" then
     [
       { name = "write_p50_ms"; unit_ = "ms"; value = w 0.5 (cal_ms p); raw = Some (w 0.5 raw_ms) };
       { name = "write_p99_ms"; unit_ = "ms"; value = w 0.99 (cal_ms p); raw = Some (w 0.99 raw_ms) };
     ]
   else [])
  @ [
      {
        name = "fail_ratio";
        unit_ = "ratio";
        value = float_of_int p.failed /. float_of_int (Array.length p.samples);
        raw = None;
      };
    ]

let op_kinds = [ "join"; "coalesce"; "split_agg"; "aggregate"; "except_all"; "select" ]

(* Fig. 5: coalescing cost per input row at two sizes; linear means a
   ratio near 1 *)
let coalesce_linearity () =
  let per_row n =
    let input = Tkr_workload.Employees.coalesce_input ~n ~seed:!seed ~tmax:Gen.tmax in
    let best = ref infinity in
    for _ = 1 to 3 do
      let ns, _ = timed (fun () -> Tkr_engine.Ops.coalesce input) in
      best := Float.min !best ns
    done;
    !best /. float_of_int n
  in
  per_row 80_000 /. per_row 20_000

let per_layer ~untraced ~(traced : pass) =
  let p = untraced in
  let n = float_of_int (Array.length traced.samples) in
  let self = Spans.self_by_name traced.spans in
  let span_ms name = Option.value ~default:0. (Hashtbl.find_opt self name) /. 1e6 /. n in
  let total = Spans.total_by_name traced.spans in
  let total_ms name = Option.value ~default:0. (Hashtbl.find_opt total name) /. 1e6 /. n in
  let get h k = Option.value ~default:0. (Hashtbl.find_opt h k) in
  let acc = traced.opstats in
  let m name unit_ value = { name; unit_; value; raw = None } in
  let pn = float_of_int (Array.length p.samples) in
  let ops_per_s q = float_of_int (Array.length q.samples) /. (busy q (cal_ms q) /. 1e3) in
  let server_ms = busy p (fun s -> float_of_int s.server_us /. 1e3) /. pn in
  let wire = !workload <> "olap" in
  let cache f = match p.cache with Some c -> f c | None -> 0. in
  let coalesce_rows = get acc.rows_in "coalesce" in
  [
    m "sql.parse_ms" "ms" (span_ms "sql.parse");
    m "check.check_ms" "ms" (span_ms "check.check");
    m "sqlenc.rewrite_ms" "ms" (span_ms "sqlenc.rewrite");
    m "engine.optimize_ms" "ms" (span_ms "engine.optimize");
    m "middleware.prepare_ms" "ms" (total_ms "middleware.prepare");
    m "middleware.execute_ms" "ms" (total_ms "middleware.execute");
  ]
  @ List.concat_map
      (fun k ->
        [
          m (Printf.sprintf "engine.op.%s.self_ms" k) "ms" (span_ms ("engine.op." ^ k));
          m (Printf.sprintf "engine.op.%s.rows_in" k) "rows/op" (get acc.rows_in k /. n);
          m (Printf.sprintf "engine.op.%s.rows_out" k) "rows/op" (get acc.rows_out k /. n);
        ])
      op_kinds
  @ [
      m "engine.coalesce_us_per_krow" "us/krow"
        (if coalesce_rows = 0. then 0.
         else Option.value ~default:0. (Hashtbl.find_opt self "engine.op.coalesce") /. coalesce_rows);
      m "engine.coalesce_linearity" "ratio" (if !workload = "olap" then coalesce_linearity () else 0.);
      m "engine.write_ms" "ms" (total_ms "engine.write");
      m "idx.probes" "count/op" (float_of_int p.idx.Stats.s_probes /. pn);
      m "idx.candidates" "count/op" (float_of_int p.idx.Stats.s_candidates /. pn);
      m "idx.rows_per_candidate" "ratio"
        (if acc.candidates = 0. then 0. else acc.cand_rows /. acc.candidates);
      m "idx.builds" "count" (float_of_int p.idx.Stats.s_built);
      m "idx.build_ms" "ms" (total_ms "idx.build");
      m "serve.server_ms" "ms" server_ms;
      m "serve.transport_ms" "ms"
        (if wire then (busy p raw_ms /. pn) -. server_ms else 0.);
      m "serve.queue_ms" "ms" p.queue_ms;
      m "serve.encode_ms" "ms" (total_ms "serve.encode");
      m "serve.decode_ms" "ms" (total_ms "serve.decode");
      m "serve.cache.hit_ratio" "ratio"
        (cache (fun c ->
             let l = c.Cache.hits + c.Cache.misses in
             if l = 0 then 0. else float_of_int c.Cache.hits /. float_of_int l));
      m "serve.cache.invalidations" "count" (cache (fun c -> float_of_int c.Cache.invalidations));
      m "serve.cache.evictions" "count" (cache (fun c -> float_of_int c.Cache.evictions));
      m "gc.alloc_mb_per_op" "MiB/op" (mib p.alloc_words /. pn);
      m "gc.major_collections" "count" (float_of_int p.major_collections);
      m "bench.cal_kernel_ms" "ms" p.kernel_ms;
      m "bench.raw_wall_s" "s" p.wall_s;
      m "bench.trace_overhead_pct" "%" ((ops_per_s p /. ops_per_s traced -. 1.) *. 100.);
    ]

(* ---- output ---- *)

(* Json.to_string with every float at 12 significant digits *)
let rec json_out = function
  | Json.Float f when Float.is_finite f -> Printf.sprintf "%.12g" f
  | Json.List l -> "[" ^ String.concat "," (List.map json_out l) ^ "]"
  | Json.Obj kv ->
      "{"
      ^ String.concat "," (List.map (fun (k, v) -> Json.to_string (Json.Str k) ^ ":" ^ json_out v) kv)
      ^ "}"
  | j -> Json.to_string j

let metric_json (x : metric) =
  Json.Obj [ ("value", Json.Float x.value); ("unit", Json.Str x.unit_) ]

let online_cpus () =
  try
    let ic = open_in "/proc/cpuinfo" in
    let n = ref 0 in
    (try
       while true do
         if String.starts_with ~prefix:"processor" (input_line ic) then incr n
       done
     with End_of_file -> ());
    close_in ic;
    !n
  with Sys_error _ -> Domain.recommended_domain_count ()

(* the CPUs this process may run on (run.py pins it to one) *)
let cpus_allowed () =
  try
    let ic = open_in "/proc/self/status" in
    let rec go () =
      match input_line ic with
      | l when String.starts_with ~prefix:"Cpus_allowed_list:" l ->
          String.trim (String.sub l 18 (String.length l - 18))
      | _ -> go ()
    in
    let r = try go () with End_of_file -> "unknown" in
    close_in ic;
    r
  with Sys_error _ -> "unknown"

let provenance m (p : pass) =
  let env = Tkr_perf.Env.capture () in
  let rows = Database.names (M.database m) |> List.map (fun n -> Table.cardinality (Database.find (M.database m) n)) in
  Json.Obj
    [
      ("env", Tkr_perf.Env.to_json env);
      ("nproc", Json.Int (online_cpus ()));
      ("cpus_allowed", Json.Str (cpus_allowed ()));
      ( "settings",
        Json.Obj
          [
            ("engine", Json.Str (match M.engine m with M.Row -> "row" | M.Vec -> "vec"));
            ("index", Json.Bool (M.index_enabled m));
            ("prune", Json.Bool (M.prune m));
            ("jobs", Json.Int (M.parallelism m));
          ] );
      ("workload", Json.Str !workload);
      ("seed", Json.Int !seed);
      ("seconds", Json.Int !seconds);
      ("trace", Json.Int !trace);
      ("scale", Json.Obj [ ("employees", Json.Int Gen.employees); ("tmax", Json.Int Gen.tmax); ("catalog_rows", Json.Int (List.fold_left ( + ) 0 rows)) ]);
      ("ops", Json.Int (Array.length p.samples));
      ("reads", Json.Int (Array.fold_left (fun a (s : sample) -> if s.kind = Read then a + 1 else a) 0 p.samples));
      ("kernel_ms_median", Json.Float p.kernel_ms);
      ("speed_factor_median", Json.Float (speed p));
    ]

let print_metrics ms p =
  List.iter
    (fun x ->
      match x.raw with
      | Some r ->
          Printf.printf "  %-28s %14.4f %-8s (raw %.4f, speed x%.3f)\n" x.name x.value x.unit_ r (speed p)
      | None -> Printf.printf "  %-28s %14.4f %s\n" x.name x.value x.unit_)
    ms

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let () =
  Calib.check_zero_alloc ();
  let traced = !trace = 1 in
  Printf.printf "perfbench %s seed %d seconds %d trace %d\n%!" !workload !seed !seconds !trace;
  let st, setup_cal, setup_raw, setup_factor =
    if traced then
      let c, r, f, st = Calib.timed_block setup in
      (st, c, r, f)
    else timed_setups ()
  in
  let m = st.m in
  let p = run_pass ~traced:false st in
  let e2e = end_to_end ~setup:(setup_cal, setup_raw, setup_factor) p in
  (* the calibration record: every kernel reading and the factor of every
     timed window *)
  (try Sys.mkdir !out_dir 0o755 with Sys_error _ -> ());
  let base = Filename.concat !out_dir (Printf.sprintf "%s-seed%d" !workload !seed) in
  write_file (base ^ ".calib.json")
    (json_out
       (Json.Obj
          [
            ("nominal_ns", Json.Float Calib.nominal_ns);
            ("setup_factor", Json.Float setup_factor);
            ( "readings",
              Json.List
                (List.rev_map
                   (fun (w, ns) -> Json.List [ Json.Int w; Json.Float ns ])
                   p.readings) );
            ("window_factors", Json.List (Array.to_list (Array.map (fun f -> Json.Float f) p.factors)));
          ]));
  let extra = extras p in
  Printf.printf "end-to-end (reference units; raw wall values and speed factor beside):\n";
  print_metrics (e2e @ extra) p;
  Printf.printf "statement classes (count; p50, p99, max in reference ms; raw p50):\n";
  List.iter
    (fun (c, ss) ->
      let cal = Array.map (cal_ms p) ss in
      Printf.printf "  %-28s %6d %10.3f %10.3f %10.3f %10.3f\n" c (Array.length ss)
        (quantile cal 0.5) (quantile cal 0.99) (quantile cal 1.0)
        (quantile (Array.map raw_ms ss) 0.5))
    (classes p);
  let result_metrics, failed, attempted, report_extra =
    if not traced then (e2e, p.failed, Array.length p.samples, [])
    else begin
      let t = run_pass ~traced:true (setup ()) in
      let layers = per_layer ~untraced:p ~traced:t in
      Printf.printf "per-layer (traced run, per op unless the unit says otherwise):\n";
      print_metrics layers t;
      write_file (base ^ ".spans.json") (json_out (Spans.to_json t.spans));
      write_file (base ^ ".folded") (Spans.to_folded t.spans);
      Printf.printf "spans: %s.spans.json, %s.folded\n" base base;
      (layers, p.failed + t.failed, Array.length p.samples + Array.length t.samples, layers)
    end
  in
  let all = e2e @ extra @ report_extra in
  let report =
    Json.Obj
      [
        ("provenance", provenance m p);
        ( "metrics",
          Json.Obj
            (List.map
               (fun x ->
                 ( x.name,
                   Json.Obj
                     ([ ("value", Json.Float x.value); ("unit", Json.Str x.unit_) ]
                     @ match x.raw with
                       | Some r -> [ ("raw", Json.Float r); ("speed", Json.Float (speed p)) ]
                       | None -> []) ))
               all) );
      ]
  in
  print_endline ("report " ^ json_out report);
  print_endline
    (json_out
       (Json.Obj
          [
            ("correct", Json.Bool (failed = 0));
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ("metrics", Json.Obj (List.map (fun x -> (x.name, metric_json x)) result_metrics));
          ]))

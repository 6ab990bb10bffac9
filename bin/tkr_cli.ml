(* The middleware's command-line interface.

   Subcommands:
     demo                      run the paper's running example
     gen  --dataset D --out P  generate a workload dataset as CSV files
     run  --data DIR [-e SQL | -f FILE]
                               run SQL (with SEQ VT support) against CSVs
     lint [--workload W] [-e SQL] [-f FILE]...
                               static analysis only: type check, validate
                               plan invariants and lint for snapshot bugs
     serve                     TCP query server: sessions, admission
                               control, snapshot-aware result cache,
                               optional flight recording (--record)
     replay RECORDING          deterministically re-execute a flight
                               recording and byte-diff every response
     connect                   client for a running server
     top                       live console view of a running server
                               (QPS, latency quantiles, cache hit rate,
                               per-fingerprint resource ledger)

   Exit codes: 0 ok, 2 parse/lex error, 3 static check failure, 4
   semantic/runtime error, 5 I/O or transport error, 124 usage error. *)

open Cmdliner
module M = Tkr_middleware.Middleware
module Ast = Tkr_sql.Ast
module Diagnostic = Tkr_check.Diagnostic
module Lint = Tkr_check.Lint
module Database = Tkr_engine.Database
module Table = Tkr_engine.Table
module Csv_io = Tkr_engine.Csv_io
module Server = Tkr_serve.Server
module Client = Tkr_serve.Client
module Wire = Tkr_serve.Wire
module Cache = Tkr_serve.Cache
module Clock = Tkr_obs.Clock
module Json = Tkr_obs.Json
module Jsonl = Tkr_obs.Jsonl
module Tel = Tkr_tel.Tel
module Record = Tkr_rec.Record
module Replay = Tkr_replay.Replay
module Console = Tkr_serve.Console

(* --- error hygiene: distinct exit codes per failure class --- *)

exception Fail of int * string

let usage msg = raise (Fail (124, msg))

let code_of_wire_error : Wire.error_code -> int = function
  | Wire.Parse_error -> 2
  | Wire.Check_error -> 3
  | Wire.Runtime_error -> 4
  | Wire.Server_busy | Wire.Deadline_exceeded | Wire.Server_shutdown
  | Wire.Session_limit | Wire.Protocol_violation ->
      5

(* Every subcommand body runs under this wrapper: failures print one line
   to stderr and map onto the documented exit codes (2 parse, 3 check,
   4 runtime, 5 I/O / transport). *)
let guarded f =
  let fail code msg =
    (* a script's output so far precedes its error, in statement order *)
    flush stdout;
    Printf.eprintf "tkr: %s\n%!" msg;
    code
  in
  match f () with
  | () -> 0
  | exception Fail (code, msg) -> fail code msg
  | exception Tkr_sql.Parser.Error d -> fail 2 (Diagnostic.to_string d)
  | exception Tkr_sql.Lexer.Error d -> fail 2 (Diagnostic.to_string d)
  | exception M.Rejected ds ->
      fail 3 (String.trim (Diagnostic.report_to_text ds))
  | exception M.Error d -> fail 4 (Diagnostic.to_string d)
  | exception Tkr_sql.Analyzer.Error d -> fail 4 (Diagnostic.to_string d)
  | exception Tkr_relation.Schema.Unknown n -> fail 4 ("unknown name " ^ n)
  | exception Invalid_argument msg -> fail 4 msg
  | exception Sys_error e -> fail 5 e
  | exception Unix.Unix_error (e, fn, arg) ->
      fail 5
        (Printf.sprintf "%s: %s%s" fn (Unix.error_message e)
           (if arg = "" then "" else " (" ^ arg ^ ")"))
  | exception Tkr_obs.Json.Parse_error e -> fail 5 ("malformed JSON: " ^ e)
  | exception Client.Server_error e ->
      fail
        (code_of_wire_error e.Wire.code)
        (Printf.sprintf "%s: %s"
           (Wire.error_code_to_string e.Wire.code)
           e.Wire.message)
  | exception Wire.Protocol_error msg -> fail 5 ("protocol error: " ^ msg)

let print_result ?(max_rows = 100) = function
  | M.Rows t -> print_string (Table.to_text ~max_rows t)
  | M.Done msg -> Printf.printf "%s\n" msg

(* --- demo --- *)

let demo () =
  let m = M.create () in
  Database.set_time_bounds (M.database m) ~tmin:0 ~tmax:24;
  ignore
    (M.execute_script m
       {|
       CREATE TABLE works (name text, skill text, b int, e int) PERIOD (b, e);
       INSERT INTO works VALUES
         ('Ann', 'SP', 3, 10), ('Joe', 'NS', 8, 16),
         ('Sam', 'SP', 8, 16), ('Ann', 'SP', 18, 20);
     |});
  print_endline "SEQ VT (SELECT count(*) AS cnt FROM works WHERE skill = 'SP')";
  print_result
    (M.execute m
       "SEQ VT (SELECT count(*) AS cnt FROM works WHERE skill = 'SP') ORDER BY vt_begin")

let demo_cmd =
  Cmd.v (Cmd.info "demo" ~doc:"Run the paper's running example (Figure 1b)")
    Term.(const (fun () -> guarded demo) $ const ())

(* --- gen --- *)

let gen dataset out scale =
  let db =
    match dataset with
    | `Employees ->
        Tkr_workload.Employees.generate
          (Tkr_workload.Employees.scaled (int_of_float (500. *. scale)))
    | `Tpcbih ->
        Tkr_workload.Tpcbih.generate { Tkr_workload.Tpcbih.default with scale }
  in
  (try Unix.mkdir out 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  List.iter
    (fun name ->
      let path = Filename.concat out (name ^ ".csv") in
      Csv_io.write_table path (Database.find db name);
      Printf.printf "wrote %s (%d rows)\n" path
        (Table.cardinality (Database.find db name)))
    (Database.names db)

let gen_cmd =
  let dataset =
    Arg.(
      required
      & opt (some (enum [ ("employees", `Employees); ("tpcbih", `Tpcbih) ])) None
      & info [ "dataset"; "d" ] ~docv:"NAME" ~doc:"employees or tpcbih")
  in
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"DIR" ~doc:"output directory")
  in
  let scale =
    Arg.(value & opt float 1.0 & info [ "scale"; "s" ] ~doc:"scale factor")
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a workload dataset as CSV period tables")
    Term.(const (fun d o s -> guarded (fun () -> gen d o s)) $ dataset $ out $ scale)

(* --- run --- *)

let load_dir m dir =
  Array.iter
    (fun file ->
      if Filename.check_suffix file ".csv" then (
        let name = Filename.remove_extension file in
        let table = Csv_io.read_table (Filename.concat dir file) in
        (* tables whose last two columns are integers named vt_* are
           registered as period tables *)
        let schema = Tkr_engine.Table.schema table in
        let n = Tkr_relation.Schema.arity schema in
        let is_period =
          n >= 2
          && (let a = Tkr_relation.Schema.get schema (n - 2) in
              let b = Tkr_relation.Schema.get schema (n - 1) in
              a.ty = Tkr_relation.Value.TInt
              && b.ty = Tkr_relation.Value.TInt
              && String.length a.name >= 3
              && String.sub a.name 0 3 = "vt_")
        in
        if is_period then Database.add_period_table (M.database m) name table
        else Database.add_table (M.database m) name table;
        Printf.eprintf "loaded %s (%d rows%s)\n%!" name
          (Table.cardinality table)
          (if is_period then ", period table" else "")))
    (Sys.readdir dir)

let read_file f =
  let ic = open_in f in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* the generated catalog shared by run, serve and connect --workload: the
   CI serve smoke job byte-diffs server output against [run --workload],
   so both sides must see the same tables *)
let workload_db = function
  | Some `Employee ->
      let module W = Tkr_workload.Employees in
      W.generate { (W.scaled 150) with W.tmax = 2000 }
  | Some `Tpch ->
      Tkr_workload.Tpcbih.generate
        { Tkr_workload.Tpcbih.default with scale = 0.05 }
  | None -> Database.create ()

let workload_queries = function
  | `Employee -> Tkr_workload.Queries.employee
  | `Tpch -> Tkr_workload.Queries.tpch

(* --engine row|vec, shared by run, explain, serve and replay:
   the vectorized engine is byte-identical to the row engine (the CI
   vec-differential job diffs the two), so the flag only changes speed *)
let engine_arg =
  Arg.(
    value
    & opt (enum [ ("row", M.Row); ("vec", M.Vec) ]) M.Vec
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "execution engine: $(b,vec) (columnar batch-at-a-time, the \
           default) or $(b,row) (interpreted row-at-a-time, the \
           differential-testing oracle); both produce byte-identical output")

(* --index on|off, shared by run, explain and serve: interval indexes
   only change the vec engine's access path (EXPLAIN's [access:] line),
   never a byte of any result — the CI determinism job diffs on/off
   outputs *)
let index_arg =
  Arg.(
    value
    & opt (enum [ ("on", true); ("off", false) ]) true
    & info [ "index" ] ~docv:"on|off"
        ~doc:
          "temporal interval indexes: the vec engine answers $(b,AS OF) \
           timeslices and overlap selections over stored period tables by \
           endpoint-sorted index probes instead of scans (the row oracle \
           always scans); $(b,on) (default) and $(b,off) produce \
           byte-identical output")

let run data workload engine index no_prune sql file explain stats
    max_rows =
  (match (sql, file, workload) with
  | Some _, Some _, _ -> usage "provide at most one of -e SQL or -f FILE"
  | None, None, None -> usage "provide -e SQL, -f FILE or --workload NAME"
  | _ -> ());
  let m =
    M.create ~engine ~index ~prune:(not no_prune) ~db:(workload_db workload)
      ()
  in
  (match data with Some dir -> load_dir m dir | None -> ());
  (* a built-in workload runs its whole query suite; the CI determinism
     job diffs its output byte-for-byte across engine/index/prune
     settings *)
  (match workload with
  | None -> ()
  | Some w ->
      List.iter
        (fun (name, sql) ->
          Printf.printf "-- %s\n" name;
          print_result ~max_rows (M.execute m sql))
        (workload_queries w));
  (match (sql, file) with
  | None, None -> ()
  | _ ->
      let script =
        match (sql, file) with
        | Some s, _ -> s
        | _, Some f -> read_file f
        | _ -> assert false
      in
      List.iter
        (fun (parse_ns, stmt) ->
          (* --explain: run queries as EXPLAIN ANALYZE, leave
             DDL/DML alone *)
          let stmt =
            match stmt with
            | Ast.Query _ when explain ->
                Ast.Explain { analyze = true; target = stmt }
            | stmt -> stmt
          in
          print_result ~max_rows (M.execute_statement ~parse_ns m stmt))
        (M.parse_script m script));
  if stats then Printf.printf "stats: %s\n" (M.totals_report m)

let run_cmd =
  let data =
    Arg.(
      value
      & opt (some string) None
      & info [ "data" ] ~docv:"DIR" ~doc:"directory of CSV tables to load")
  in
  let workload =
    Arg.(
      value
      & opt (some (enum [ ("employee", `Employee); ("tpch", `Tpch) ])) None
      & info [ "workload" ] ~docv:"NAME"
          ~doc:
            "run a built-in query workload (employee or tpch) against its \
             generated catalog")
  in
  let sql =
    Arg.(
      value
      & opt (some string) None
      & info [ "e" ] ~docv:"SQL" ~doc:"SQL script to execute")
  in
  let file =
    Arg.(
      value
      & opt (some string) None
      & info [ "f" ] ~docv:"FILE" ~doc:"SQL script file to execute")
  in
  let explain =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:"run every query as EXPLAIN ANALYZE: print the annotated \
                operator tree instead of the rows")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:"after the script, print cumulative phase timings \
                (parse/analyze/rewrite/optimize/execute)")
  in
  let max_rows =
    Arg.(
      value & opt int 100
      & info [ "max-rows" ] ~docv:"N" ~doc:"print at most $(docv) result rows")
  in
  let no_prune =
    Arg.(
      value & flag
      & info [ "no-prune" ]
          ~doc:"disable analysis-driven plan pruning (results are \
                byte-identical either way; useful for differential testing)")
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Execute SQL (including SEQ VT snapshot queries) against CSV data")
    Term.(
      const (fun a b c d e f g h i j ->
          guarded (fun () -> run a b c d e f g h i j))
      $ data $ workload $ engine_arg $ index_arg $ no_prune $ sql
      $ file $ explain $ stats $ max_rows)

(* --- explain --- *)

let explain data analyze engine index no_prune sql =
  let m = M.create ~engine ~index ~prune:(not no_prune) () in
  (match data with Some dir -> load_dir m dir | None -> ());
  print_endline (if analyze then M.explain_analyze m sql else M.explain m sql)

let explain_cmd =
  let data =
    Arg.(
      value
      & opt (some string) None
      & info [ "data" ] ~docv:"DIR" ~doc:"directory of CSV tables to load")
  in
  let analyze =
    Arg.(
      value & flag
      & info [ "analyze" ]
          ~doc:"execute the query and annotate every operator with rows \
                in/out, internals and elapsed time")
  in
  let sql =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SQL")
  in
  let no_prune =
    Arg.(
      value & flag
      & info [ "no-prune" ]
          ~doc:"disable analysis-driven plan pruning before explaining")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Show the optimized, rewritten plan of a query with the \
             abstract interpreter's inferred per-operator facts")
    Term.(
      const (fun a b c d e f -> guarded (fun () -> explain a b c d e f))
      $ data $ analyze $ engine_arg $ index_arg $ no_prune $ sql)

(* --- lint --- *)

(* Statically analyze a script: report the check-phase diagnostics of
   every statement without running any query.  DDL/DML statements are
   executed so that later statements in the script resolve against the
   tables they create. *)
let lint_script m profile name text : (string * Diagnostic.t list) list =
  match Tkr_sql.Parser.script text with
  | exception (Tkr_sql.Parser.Error d | Tkr_sql.Lexer.Error d) -> [ (name, [ d ]) ]
  | stmts ->
      let many = List.length stmts > 1 in
      List.mapi
        (fun i stmt ->
          let nm = if many then Printf.sprintf "%s:%d" name (i + 1) else name in
          let diags = M.check_statement m stmt in
          let diags =
            (* under a non-default profile, add what that evaluation
               style would get wrong on this plan (the paper's Table 1) *)
            if profile.Lint.prof_name = Lint.middleware.Lint.prof_name then diags
            else
              match M.lint_statement m profile stmt with
              | extra -> Diagnostic.sort (diags @ extra)
              | exception _ -> diags
          in
          (match stmt with
          | Ast.Create_table _ | Ast.Insert _ | Ast.Drop_table _ | Ast.Update _
          | Ast.Delete _ -> (
              try ignore (M.execute_statement ~parse_ns:None m stmt) with _ -> ())
          | _ -> ());
          (nm, diags))
        stmts

let lint_run data workload sql files profile werror json_out =
  match Lint.of_name profile with
  | None ->
      usage
        (Printf.sprintf "unknown profile %s (try %s)" profile
           (String.concat ", "
              (List.map (fun (p : Lint.profile) -> p.prof_name) Lint.profiles)))
  | Some profile ->
      let db =
        match workload with
        | Some `Employee ->
            Some (Tkr_workload.Employees.generate (Tkr_workload.Employees.scaled 25))
        | Some `Tpch ->
            Some
              (Tkr_workload.Tpcbih.generate
                 { Tkr_workload.Tpcbih.default with scale = 0.01 })
        | None -> None
      in
      let m =
        match db with
        | Some db -> M.create ~strict:werror ~db ()
        | None -> M.create ~strict:werror ()
      in
      (match data with Some dir -> load_dir m dir | None -> ());
      let file_items = List.map (fun f -> (f, read_file f)) files in
      let items =
        (match workload with
        | Some `Employee -> Tkr_workload.Queries.employee
        | Some `Tpch -> Tkr_workload.Queries.tpch
        | None -> [])
        @ (match sql with Some s -> [ ("<cmdline>", s) ] | None -> [])
        @ file_items
      in
      if items = [] then
        usage "nothing to lint: give --workload, -e SQL or -f FILE"
      else
        let reports =
          List.concat_map (fun (name, text) -> lint_script m profile name text) items
        in
        let failed (_, ds) = Diagnostic.count_errors ~werror ds > 0 in
        (if json_out then
           print_endline
             (Tkr_obs.Json.to_string
                (Tkr_obs.Json.List
                   (List.map
                      (fun (name, ds) ->
                        Tkr_obs.Json.Obj
                          [
                            ("name", Tkr_obs.Json.Str name);
                            ("profile", Tkr_obs.Json.Str profile.Lint.prof_name);
                            ("report", Diagnostic.report_to_json ds);
                          ])
                      reports)))
         else
           List.iter
             (fun ((name, ds) as r) ->
               if ds = [] then Printf.printf "%s: OK\n" name
               else (
                 Printf.printf "%s:%s\n" name
                   (if failed r then " FAIL" else "");
                 print_endline (Diagnostic.report_to_text ds)))
             reports);
        let bad = List.length (List.filter failed reports) in
        if bad > 0 then
          raise
            (Fail
               ( 3,
                 Printf.sprintf "lint: %d of %d statements failed" bad
                   (List.length reports) ))

let lint data workload sql files profile werror json_out format list_codes
    describe =
  if list_codes then
    (* expose the stable diagnostic registry: every TKR code with its
       one-line description *)
    List.iter
      (fun (code, desc) -> Printf.printf "%s  %s\n" code desc)
      Diagnostic.registry
  else
    match describe with
    | Some code -> (
        match Diagnostic.describe code with
        | Some desc -> Printf.printf "%s  %s\n" code desc
        | None ->
            raise
              (Fail
                 ( 124,
                   Printf.sprintf
                     "unknown diagnostic code %s (see lint --list-codes)" code
                 )))
    | None ->
        let json_out = json_out || format = `Json in
        lint_run data workload sql files profile werror json_out

let lint_cmd =
  let data =
    Arg.(
      value
      & opt (some string) None
      & info [ "data" ] ~docv:"DIR" ~doc:"directory of CSV tables to load")
  in
  let workload =
    Arg.(
      value
      & opt (some (enum [ ("employee", `Employee); ("tpch", `Tpch) ])) None
      & info [ "workload" ] ~docv:"NAME"
          ~doc:"lint a built-in query workload (employee or tpch) against \
                its generated catalog")
  in
  let sql =
    Arg.(
      value
      & opt (some string) None
      & info [ "e" ] ~docv:"SQL" ~doc:"SQL script to lint")
  in
  let files =
    Arg.(
      value & opt_all string []
      & info [ "f" ] ~docv:"FILE" ~doc:"SQL script file to lint (repeatable)")
  in
  let profile =
    Arg.(
      value
      & opt string "middleware"
      & info [ "profile" ] ~docv:"NAME"
          ~doc:"capability profile to lint under: middleware, \
                interval-preservation, alignment or teradata (Table 1)")
  in
  let werror =
    Arg.(
      value & flag
      & info [ "Werror" ] ~doc:"treat warnings as errors (exit non-zero)")
  in
  let json_out =
    Arg.(
      value & flag & info [ "json" ] ~doc:"print diagnostics as JSON")
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format" ] ~docv:"FMT"
          ~doc:"output format: text (default) or json (same as --json)")
  in
  let list_codes =
    Arg.(
      value & flag
      & info [ "list-codes" ]
          ~doc:"print every registered TKR diagnostic code with its \
                description and exit")
  in
  let describe =
    Arg.(
      value
      & opt (some string) None
      & info [ "describe" ] ~docv:"TKRnnn"
          ~doc:"print the description of one diagnostic code and exit")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Statically analyze SQL without executing it: type check, \
             validate plan invariants, run the abstract interpreter \
             (TKR4xx) and lint for snapshot-semantics bugs (AG/BD)")
    Term.(
      const (fun a b c d e f g h i j ->
          guarded (fun () -> lint a b c d e f g h i j))
      $ data $ workload $ sql $ files $ profile $ werror $ json_out $ format
      $ list_codes $ describe)

(* --- serve --- *)

let workload_name = function
  | Some `Employee -> Some "employee"
  | Some `Tpch -> Some "tpch"
  | None -> None

let serve data workload host port max_sessions queue_depth cache_mb engine
    index workers metrics_out log log_rate slow_ms record =
  let m = M.create ~engine ~index ~db:(workload_db workload) () in
  (match data with Some dir -> load_dir m dir | None -> ());
  (* the JSONL event log: a file path, "stderr", or off entirely *)
  let tel, tel_oc =
    match log with
    | None -> (Tel.disabled, None)
    | Some "stderr" -> (Tel.create ~rate_limit:log_rate (Jsonl.Chan stderr), None)
    | Some path ->
        let oc = open_out path in
        (Tel.create ~rate_limit:log_rate (Jsonl.Chan oc), Some oc)
  in
  (* the flight recorder: one JSONL entry per finished request *)
  let recorder, rec_oc =
    match record with
    | None -> (Record.disabled, None)
    | Some path ->
        let oc = open_out path in
        let header =
          Record.header
            ?workload:(workload_name workload)
            ~source:"tkr_cli serve" ()
        in
        (Record.create ~header (Jsonl.Chan oc), Some oc)
  in
  let config =
    { Server.host; port; max_sessions; queue_depth; cache_mb; workers;
      slow_ms }
  in
  let srv = Server.start ~config ~tel ~recorder m in
  Printf.printf
    "tkr_serve listening on %s:%d (sessions %d, queue %d, cache %d MiB, \
     workers %d%s%s)\n%!"
    host (Server.port srv) max_sessions queue_depth cache_mb workers
    (match log with Some dst -> ", log " ^ dst | None -> "")
    (match record with Some dst -> ", record " ^ dst | None -> "");
  (* SIGTERM/SIGINT request a graceful drain: accepted requests finish,
     then every thread joins and the process exits 0 *)
  let stop_requested = Atomic.make false in
  let on_signal _ = Atomic.set stop_requested true in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  while not (Atomic.get stop_requested) do
    Thread.delay 0.1
  done;
  Printf.eprintf "draining...\n%!";
  Server.stop ~reason:"sigterm" srv;
  Tel.close tel;
  (match tel_oc with Some oc -> close_out oc | None -> ());
  (if Record.enabled recorder then
     Printf.eprintf "recorded %d request(s)\n%!" (Record.recorded recorder));
  Record.close recorder;
  (match rec_oc with Some oc -> close_out oc | None -> ());
  let s = Server.cache_stats srv in
  Printf.eprintf "cache: %d hits, %d misses, %d evictions, %d invalidations\n%!"
    s.Cache.hits s.Cache.misses s.Cache.evictions s.Cache.invalidations;
  match metrics_out with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc (Server.metrics_text srv);
      close_out oc;
      Printf.eprintf "wrote metrics to %s\n%!" path

let host_arg =
  Arg.(
    value
    & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"ADDR" ~doc:"bind/connect address")

let port_arg =
  Arg.(
    value & opt int 7643
    & info [ "port"; "p" ] ~docv:"PORT"
        ~doc:"TCP port (0 lets the kernel pick; serve prints the choice)")

let serve_cmd =
  let data =
    Arg.(
      value
      & opt (some string) None
      & info [ "data" ] ~docv:"DIR" ~doc:"directory of CSV tables to load")
  in
  let workload =
    Arg.(
      value
      & opt (some (enum [ ("employee", `Employee); ("tpch", `Tpch) ])) None
      & info [ "workload" ] ~docv:"NAME"
          ~doc:"serve a built-in workload catalog (employee or tpch)")
  in
  let max_sessions =
    Arg.(
      value & opt int 64
      & info [ "max-sessions" ] ~docv:"N"
          ~doc:"concurrent connections; further dials get SESSION_LIMIT")
  in
  let queue_depth =
    Arg.(
      value & opt int 128
      & info [ "queue-depth" ] ~docv:"N"
          ~doc:
            "admission queue high-water mark; requests past it get \
             SERVER_BUSY instead of queueing unboundedly")
  in
  let cache_mb =
    Arg.(
      value & opt int 64
      & info [ "cache-mb" ] ~docv:"MB"
          ~doc:
            "result-cache byte budget in MiB; 0 disables the cache \
             (results are then always recomputed)")
  in
  let workers =
    Arg.(
      value & opt int 8
      & info [ "workers" ] ~docv:"N"
          ~doc:"worker threads draining the admission queue (request \
                concurrency)")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"PATH"
          ~doc:
            "on shutdown, write the full metrics registry (engine and \
             serve_* instruments) as an OpenMetrics document")
  in
  let log =
    Arg.(
      value
      & opt (some string) None
      & info [ "log" ] ~docv:"PATH|stderr"
          ~doc:
            "write the structured JSONL event log (connections, requests \
             with trace ids, cache traffic, invalidations, rejects, epoch \
             bumps, slow queries) to $(docv); omitting it disables \
             telemetry entirely")
  in
  let log_rate =
    Arg.(
      value
      & opt int Tel.default_rate_limit
      & info [ "log-rate" ] ~docv:"N"
          ~doc:
            "event-log rate limit in events per second (0 = unlimited); \
             drops are counted in the tkr_tel_events_dropped_total metric \
             and announced in the log itself")
  in
  let slow_ms =
    Arg.(
      value & opt int 500
      & info [ "slow-ms" ] ~docv:"MS"
          ~doc:
            "slow-query threshold: requests at or above $(docv) total \
             latency emit a slow_query event with plan fingerprint, \
             queue/execute split and cache disposition")
  in
  let record =
    Arg.(
      value
      & opt (some string) None
      & info [ "record" ] ~docv:"PATH"
          ~doc:
            "flight recorder: append one versioned JSONL entry per \
             finished request (statement, session, arrival order, table \
             versions and epoch, cache disposition, resource usage, \
             response digest) to $(docv), for [tkr replay]")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the TCP query server: per-connection sessions with prepared \
          statements, admission control with backpressure, snapshot-aware \
          result cache, live telemetry (STATS/METRICS/HEALTH/LEDGER, event \
          log), optional flight recording; SIGTERM/SIGINT drain gracefully")
    Term.(
      const (fun a b c d e f g h i j k l m n o ->
          guarded (fun () -> serve a b c d e f g h i j k l m n o))
      $ data $ workload $ host_arg $ port_arg $ max_sessions $ queue_depth
      $ cache_mb $ engine_arg $ index_arg $ workers $ metrics_out
      $ log $ log_rate $ slow_ms $ record)

(* --- replay --- *)

let workload_of_name = function
  | "employee" -> `Employee
  | "tpch" -> `Tpch
  | other ->
      usage (Printf.sprintf "unknown workload %S in recording header" other)

let shorten_stmt s =
  let s = String.map (function '\n' | '\t' -> ' ' | c -> c) s in
  if String.length s <= 60 then s else String.sub s 0 57 ^ "..."

(* Rebuild the catalog a recording was captured against and funnel its
   entries through a fresh in-process server.  Determinism argument: the
   initial database is a pure function of the workload name (or the same
   --data directory), per-session program order is preserved by the
   replay engine and the server's FIFO guarantee, and every response is
   pinned by the (plan fingerprint, table versions, epoch) key the
   recording carries — so the recorded digests must reproduce. *)
let replay_pass ~data ~workload ~cache_mb ~paced path =
  let header, entries = Record.read_file path in
  let wl =
    match workload with
    | Some _ -> workload
    | None -> Option.map workload_of_name header.Record.h_workload
  in
  if wl = None && data = None then
    usage "recording has no workload header: provide --workload or --data";
  let m = M.create ~db:(workload_db wl) () in
  (match data with Some dir -> load_dir m dir | None -> ());
  let sessions =
    List.length
      (List.sort_uniq compare
         (List.map (fun (e : Record.entry) -> e.Record.e_session) entries))
  in
  let config =
    {
      Server.default_config with
      port = 0;
      max_sessions = sessions + 4;
      queue_depth = max Server.default_config.Server.queue_depth (sessions * 4);
      cache_mb;
    }
  in
  let srv = Server.start ~config m in
  Fun.protect ~finally:(fun () -> Server.stop srv) @@ fun () ->
  Replay.run ~paced ~port:(Server.port srv) entries

let replay data workload cache_mb paced fast show path =
  if paced && fast then usage "--paced excludes --as-fast-as-possible";
  let o = replay_pass ~data ~workload ~cache_mb ~paced path in
  Printf.printf
    "replayed %d request(s) over %d session(s) in %.1f ms (%s)\n" o.Replay.total
    o.Replay.sessions
    (o.Replay.wall_ns /. 1e6)
    (if paced then "paced" else "as fast as possible");
  Printf.printf
    "  compared %d   matched %d   mismatched %d   skipped %d   failed %d   \
     cached %d\n"
    o.Replay.compared o.Replay.matched
    (List.length o.Replay.mismatches)
    o.Replay.skipped o.Replay.failed o.Replay.cached;
  List.iteri
    (fun i (mm : Replay.mismatch) ->
      if i < show then
        Printf.printf "  mismatch seq %d session %d: expected %s got %s  %s\n"
          mm.Replay.mm_seq mm.Replay.mm_session mm.Replay.mm_expected
          mm.Replay.mm_got
          (shorten_stmt mm.Replay.mm_stmt))
    o.Replay.mismatches;
  if Replay.identical o then
    Printf.printf "recording replayed byte-identically\n"
  else
    raise
      (Fail
         ( 4,
           Printf.sprintf "replay diverged: %d mismatch(es), %d failure(s)"
             (List.length o.Replay.mismatches)
             o.Replay.failed ))

let replay_path_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"RECORDING")

let replay_data_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "data" ] ~docv:"DIR"
        ~doc:
          "directory of CSV tables the recording was captured against \
           (when it was not a built-in workload)")

let replay_workload_arg =
  Arg.(
    value
    & opt (some (enum [ ("employee", `Employee); ("tpch", `Tpch) ])) None
    & info [ "workload" ] ~docv:"NAME"
        ~doc:
          "override the catalog to replay against (defaults to the \
           recording header's workload)")

let replay_cache_mb_arg =
  Arg.(
    value & opt int 64
    & info [ "cache-mb" ] ~docv:"MB"
        ~doc:
          "result-cache budget of the replay server; byte-identity must \
           hold at any setting, 0 included")

let replay_cmd =
  let paced =
    Arg.(
      value & flag
      & info [ "paced" ]
          ~doc:
            "reproduce the recorded arrival tempo (sleep to each \
             request's recorded offset) instead of replaying as fast as \
             admission allows")
  in
  let fast =
    Arg.(
      value & flag
      & info [ "as-fast-as-possible" ]
          ~doc:"replay at full speed (the default; excludes --paced)")
  in
  let show =
    Arg.(
      value & opt int 5
      & info [ "show-mismatches" ] ~docv:"N"
          ~doc:"print at most $(docv) mismatched entries")
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Deterministically re-execute a flight recording against a fresh \
          in-process server — one connection per recorded session, global \
          send order preserved — and byte-diff every response digest \
          against the recording; exits non-zero on any divergence")
    Term.(
      const (fun a b c d e f g -> guarded (fun () -> replay a b c d e f g))
      $ replay_data_arg $ replay_workload_arg $ replay_cache_mb_arg $ paced $ fast $ show $ replay_path_arg)

(* --- connect --- *)

(* split a script into statements client-side (the wire protocol carries
   one statement per request); quote-aware so ';' inside SQL strings
   survives *)
let split_statements text =
  let out = ref [] in
  let buf = Buffer.create 128 in
  let in_str = ref false in
  let flush_stmt () =
    let s = String.trim (Buffer.contents buf) in
    Buffer.clear buf;
    if s <> "" then out := s :: !out
  in
  String.iter
    (fun ch ->
      match ch with
      | '\'' ->
          in_str := not !in_str;
          Buffer.add_char buf ch
      | ';' when not !in_str -> flush_stmt ()
      | ch -> Buffer.add_char buf ch)
    text;
  flush_stmt ();
  List.rev !out

let connect host port sql file workload connections deadline_ms trace max_rows
    =
  let render (rsp : Wire.response) =
    (match rsp.Wire.rsp_trace with
    | Some t when trace -> Printf.eprintf "%s\n%!" (Tkr_obs.Json.to_string t)
    | _ -> ());
    match rsp.Wire.body with
    | Ok (Wire.Rows t) -> Table.to_text ~max_rows t
    | Ok (Wire.Message msg) -> msg ^ "\n"
    | Error e -> raise (Client.Server_error e)
  in
  match (workload, sql, file) with
  | None, None, None -> usage "provide -e SQL, -f FILE or --workload NAME"
  | Some _, Some _, _ | Some _, _, Some _ ->
      usage "--workload excludes -e/-f"
  | None, _, _ ->
      let script =
        match (sql, file) with
        | Some s, None -> s
        | None, Some f -> read_file f
        | Some _, Some _ -> usage "provide at most one of -e SQL or -f FILE"
        | None, None -> assert false
      in
      Client.with_client ~host ~port @@ fun c ->
      List.iter
        (fun stmt ->
          print_string (render (Client.run ?deadline_ms ~trace c stmt)))
        (split_statements script)
  | Some w, None, None ->
      (* the whole workload suite, fanned over N connections; results
         print in workload order so the bytes match [run --workload] *)
      let queries = Array.of_list (workload_queries w) in
      let n = Array.length queries in
      let results = Array.make n "" in
      let nconn = max 1 connections in
      let first_err = ref None in
      let err_lock = Mutex.create () in
      let worker k () =
        try
          Client.with_client ~host ~port @@ fun c ->
          Array.iteri
            (fun i (name, sql) ->
              if i mod nconn = k then
                let rsp = Client.run ?deadline_ms ~trace c sql in
                results.(i) <- Printf.sprintf "-- %s\n%s" name (render rsp))
            queries
        with e ->
          Mutex.lock err_lock;
          if !first_err = None then first_err := Some e;
          Mutex.unlock err_lock
      in
      let threads = List.init nconn (fun k -> Thread.create (worker k) ()) in
      List.iter Thread.join threads;
      (match !first_err with Some e -> raise e | None -> ());
      Array.iter print_string results

let connect_cmd =
  let sql =
    Arg.(
      value
      & opt (some string) None
      & info [ "e" ] ~docv:"SQL" ~doc:"SQL script to execute remotely")
  in
  let file =
    Arg.(
      value
      & opt (some string) None
      & info [ "f" ] ~docv:"FILE" ~doc:"SQL script file to execute remotely")
  in
  let workload =
    Arg.(
      value
      & opt (some (enum [ ("employee", `Employee); ("tpch", `Tpch) ])) None
      & info [ "workload" ] ~docv:"NAME"
          ~doc:
            "run a built-in query workload through the server; output is \
             byte-identical to [run --workload] against the same catalog")
  in
  let connections =
    Arg.(
      value & opt int 1
      & info [ "connections"; "c" ] ~docv:"N"
          ~doc:
            "with --workload, fan the queries over $(docv) concurrent \
             connections (results still print in workload order)")
  in
  let deadline_ms =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "per-request deadline; requests still queued past it fail \
             with DEADLINE_EXCEEDED")
  in
  let trace =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:"request execution traces and print them to stderr as JSON")
  in
  let max_rows =
    Arg.(
      value & opt int 100
      & info [ "max-rows" ] ~docv:"N" ~doc:"print at most $(docv) result rows")
  in
  Cmd.v
    (Cmd.info "connect"
       ~doc:"Run SQL against a tkr serve instance over the wire protocol")
    Term.(
      const (fun a b c d e f g h i ->
          guarded (fun () -> connect a b c d e f g h i))
      $ host_arg $ port_arg $ sql $ file $ workload $ connections
      $ deadline_ms $ trace $ max_rows)

(* --- top --- *)

(* the scrape commands answer with a Message whose text is JSON *)
let json_payload (rsp : Wire.response) : Json.t =
  match rsp.Wire.body with
  | Ok (Wire.Message s) -> Json.of_string s
  | Ok (Wire.Rows _) ->
      raise (Fail (5, "unexpected rows payload from a scrape command"))
  | Error e -> raise (Client.Server_error e)

(* frame rendering lives in Tkr_serve.Console (pure, golden-tested);
   this loop only scrapes, tracks the request delta and paints *)
let top host port interval iterations =
  let clear_screen = Unix.isatty Unix.stdout in
  Client.with_client ~host ~port @@ fun c ->
  let prev_requests = ref (-1) in
  let tick () =
    let stats = json_payload (Client.run_exn c "STATS") in
    let health = json_payload (Client.run_exn c "HEALTH") in
    (* LEDGER is scraped leniently: an older server parses the bare word
       as SQL and answers with an error — the panel is simply omitted *)
    let ledger =
      match (Client.run c "LEDGER").Wire.body with
      | Ok (Wire.Message s) -> (
          try Some (Json.of_string s) with Json.Parse_error _ -> None)
      | Ok (Wire.Rows _) | Error _ -> None
      | exception Client.Server_error _ -> None
    in
    let frame =
      Console.frame ~host ~port ~interval ~prev_requests:!prev_requests ~stats
        ~health ~ledger ()
    in
    prev_requests :=
      Option.value ~default:0
        (Option.bind (Json.member "requests" stats) Json.to_int_opt);
    if clear_screen then print_string "\027[2J\027[H";
    print_string frame;
    flush stdout
  in
  let rec loop n =
    if iterations = 0 || n < iterations then begin
      tick ();
      if iterations = 0 || n + 1 < iterations then Thread.delay interval;
      loop (n + 1)
    end
  in
  loop 0

let top_cmd =
  let interval =
    Arg.(
      value & opt float 1.0
      & info [ "interval"; "i" ] ~docv:"SECONDS"
          ~doc:"seconds between refreshes")
  in
  let iterations =
    Arg.(
      value & opt int 0
      & info [ "iterations"; "n" ] ~docv:"N"
          ~doc:"stop after $(docv) refreshes (0 = until interrupted)")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live console view of a running server: QPS, latency quantiles \
          (p50/p95/p99), queue depth, in-flight requests, cache hit rate \
          and the slowest plan fingerprints, polled over the wire via \
          STATS/HEALTH")
    Term.(
      const (fun a b c d -> guarded (fun () -> top a b c d))
      $ host_arg $ port_arg $ interval $ iterations)

let () =
  let doc = "snapshot-semantics temporal query middleware" in
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "tkr" ~doc)
          [
            demo_cmd; gen_cmd; run_cmd; explain_cmd; lint_cmd; serve_cmd;
            replay_cmd; connect_cmd; top_cmd;
          ]))

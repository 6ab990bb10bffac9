(* Bechamel micro-benchmark harness: one Test.make per paper table/figure
   (Figure 5, Table 3 top/bottom), plus ablations for the Section 9
   optimizations.

   Workloads are scaled to keep the full run in the low minutes; the
   experiment binary (bin/experiments.exe) runs the larger, closer-to-paper
   configurations and prints the comparison tables. *)

open Bechamel
open Toolkit
module M = Tkr_middleware.Middleware
module B = Tkr_baseline.Baseline
module W = Tkr_workload.Employees
module T = Tkr_workload.Tpcbih
module Q = Tkr_workload.Queries
module Ops = Tkr_engine.Ops
module Rewriter = Tkr_sqlenc.Rewriter

(* ---- fixtures (built once) ---- *)

let emp_db = W.generate { (W.scaled 300) with tmax = 2500 }
let tpc_db = T.generate { T.default with scale = 0.5 }
let emp_m = M.create ~db:emp_db ()
let emp_m_literal = M.create ~options:Rewriter.literal ~db:emp_db ()

let emp_m_unfused =
  M.create
    ~options:{ Rewriter.final_coalesce_only = true; fused_split_agg = false }
    ~db:emp_db ()

let emp_m_perop =
  M.create
    ~options:{ Rewriter.final_coalesce_only = false; fused_split_agg = true }
    ~db:emp_db ()

let tpc_m = M.create ~db:tpc_db ()
let emp_m_no_opt = M.create ~optimize:false ~db:emp_db ()

let seq_test m suite name =
  let p = M.prepare m (Q.lookup name suite) in
  Staged.stage (fun () -> ignore (M.run_prepared m p))

let nat_test db m suite name =
  let algebra, _ = M.snapshot_algebra m (Q.lookup name suite) in
  Staged.stage (fun () -> ignore (B.eval_coalesced B.Alignment db algebra))

(* ---- Figure 5: multiset coalescing scaling ---- *)

let fig5_tests =
  Test.make_grouped ~name:"fig5-coalescing"
    (List.map
       (fun n ->
         let t = W.coalesce_input ~n ~seed:11 ~tmax:2500 in
         Test.make
           ~name:(Printf.sprintf "%dk-rows" (n / 1000))
           (Staged.stage (fun () -> ignore (Ops.coalesce t))))
       [ 1_000; 10_000; 50_000 ])

(* ---- Table 3 (top): employee workload ---- *)

let table3_emp_tests =
  Test.make_grouped ~name:"table3-emp"
    (List.map
       (fun (name, _) -> Test.make ~name:(name ^ "-seq") (seq_test emp_m Q.employee name))
       Q.employee
    @ List.map
        (fun name ->
          Test.make ~name:(name ^ "-nat") (nat_test emp_db emp_m Q.employee name))
        [ "join-1"; "join-3"; "agg-1"; "agg-2"; "diff-1"; "diff-2" ])

(* ---- Table 3 (bottom): TPC-BiH workload ---- *)

let table3_tpc_tests =
  Test.make_grouped ~name:"table3-tpc"
    (List.map
       (fun name -> Test.make ~name:(name ^ "-seq") (seq_test tpc_m Q.tpch name))
       Q.tpch_perf_names
    @ List.map
        (fun name ->
          Test.make ~name:(name ^ "-nat") (nat_test tpc_db tpc_m Q.tpch name))
        [ "Q1"; "Q6"; "Q12" ])

(* ---- ablations (Section 9 optimizations) ---- *)

let ablation_tests =
  Test.make_grouped ~name:"ablation"
    ([
       Test.make ~name:"agg-1-optimized" (seq_test emp_m Q.employee "agg-1");
       Test.make ~name:"agg-1-unfused-agg" (seq_test emp_m_unfused Q.employee "agg-1");
       Test.make ~name:"agg-1-per-op-coalesce" (seq_test emp_m_perop Q.employee "agg-1");
       Test.make ~name:"agg-1-literal-fig4" (seq_test emp_m_literal Q.employee "agg-1");
       Test.make ~name:"join-1-optimized" (seq_test emp_m Q.employee "join-1");
       Test.make ~name:"join-1-per-op-coalesce" (seq_test emp_m_perop Q.employee "join-1");
       Test.make ~name:"join-4-no-join-reorder" (seq_test emp_m_no_opt Q.employee "join-4");
       Test.make ~name:"join-4-with-join-reorder" (seq_test emp_m Q.employee "join-4");
     ]
    @
    let salaries = Tkr_engine.Database.find emp_db "salaries" in
    let titles = Tkr_engine.Database.find emp_db "titles" in
    let module Expr = Tkr_relation.Expr in
    let pred =
      Expr.(
        And
          ( Cmp (Eq, Col 0, Col 4),
            And (Cmp (Lt, Col 2, Col 7), Cmp (Lt, Col 6, Col 3)) ))
    in
    [
      Test.make ~name:"overlap-join-hash"
        (Staged.stage (fun () -> ignore (Tkr_engine.Exec.join pred salaries titles)));
    ])

(* ---- harness ---- *)

let benchmark tests =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances tests in
  Analyze.all ols Instance.monotonic_clock raw

(* collected (test name, ns/run) pairs for the JSON dump *)
let collected : (string * float) list ref = ref []

let print_results results =
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> String.compare a b) rows in
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some (est :: _) ->
          collected := (name, est) :: !collected;
          Printf.printf "%-48s %12.3f us/run\n%!" name (est /. 1000.)
      | _ -> Printf.printf "%-48s %12s\n%!" name "n/a")
    rows

(* ---- canonical JSON dump (Tkr_perf schema, BENCH_PR<n>.json) ---- *)

module Trace = Tkr_obs.Trace
module Json = Tkr_obs.Json
module Bench_result = Tkr_perf.Bench_result

(* one traced execution per employee query: per-operator counters
   (rows in/out, join strategy, coalesce groups/segments, ...), now with
   per-span GC/allocation deltas *)
let operator_traces () : Json.t =
  Json.List
    (List.map
       (fun (name, sql) ->
         let p = M.prepare emp_m sql in
         let obs = Trace.create ~gc:true () in
         ignore (M.run_prepared ~obs emp_m p);
         Json.Obj
           [
             ("query", Json.Str name);
             ("trace", Json.List (List.map Trace.to_json_value (Trace.roots obs)));
           ])
       Q.employee)

(* bechamel names tests "group/test"; the canonical schema keys on the
   same two components *)
let split_bechamel_name full =
  match String.index_opt full '/' with
  | Some i ->
      ( String.sub full 0 i,
        String.sub full (i + 1) (String.length full - i - 1) )
  | None -> ("bench", full)

let write_json path =
  let results =
    List.rev_map
      (fun (name, ns) ->
        let suite, test = split_bechamel_name name in
        Bench_result.result ~suite ~name:test ~runs:1 ns)
      !collected
  in
  Bench_result.write path
    (Bench_result.make ~source:"bench/main.ml"
       ~extra:[ ("operator_traces", operator_traces ()) ]
       results);
  Printf.printf "wrote %s\n%!" path

let () =
  let json_path =
    (* [--json PATH] overrides; the default derives the next trajectory
       name (BENCH_PR<n>.json) from the files already present *)
    let rec find = function
      | "--json" :: path :: _ -> path
      | _ :: rest -> find rest
      | [] -> Bench_result.default_filename ()
    in
    find (Array.to_list Sys.argv)
  in
  List.iter
    (fun (label, tests) ->
      Printf.printf "== %s ==\n%!" label;
      print_results (benchmark tests);
      print_newline ())
    [
      ("Figure 5: multiset coalescing", fig5_tests);
      ("Table 3 (top): employee workload", table3_emp_tests);
      ("Table 3 (bottom): TPC-BiH workload", table3_tpc_tests);
      ("Ablations (Section 9)", ablation_tests);
    ];
  write_json json_path

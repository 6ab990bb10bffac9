(* Workload sanity: the generators produce well-formed period tables, every
   workload query parses/analyzes/rewrites/executes at small scale, and the
   optimized and literal rewritings agree on real workload queries. *)

module M = Tkr_middleware.Middleware
module W = Tkr_workload.Employees
module T = Tkr_workload.Tpcbih
module Q = Tkr_workload.Queries
module Table = Tkr_engine.Table
module Database = Tkr_engine.Database
module Schema = Tkr_relation.Schema
module Value = Tkr_relation.Value
module Tuple = Tkr_relation.Tuple
module Rewriter = Tkr_sqlenc.Rewriter

let table_bag = Alcotest.testable Table.pp Table.equal_bag

let emp_db () = W.generate { (W.scaled 60) with tmax = 1000 }
let tpc_db () = T.generate { T.default with scale = 0.15; tmax = 600 }

let mw ?options db = M.create ?options ~db ()

let check_period_table db name =
  let t = Database.find db name in
  Alcotest.(check bool) (name ^ " is period") true (Database.is_period db name);
  Array.iter
    (fun row ->
      let n = Tuple.arity row in
      match (Tuple.get row (n - 2), Tuple.get row (n - 1)) with
      | Value.Int b, Value.Int e ->
          if b >= e then Alcotest.failf "%s: empty interval [%d,%d)" name b e
      | _ -> Alcotest.failf "%s: non-integer period" name)
    (Table.rows t)

let test_employees_generator () =
  let db = emp_db () in
  List.iter (check_period_table db)
    [ "departments"; "employees"; "salaries"; "titles"; "dept_emp"; "dept_manager" ];
  (* salaries cover each employee from hire to tmax without overlap *)
  Alcotest.(check bool) "salaries larger than employees" true
    (Table.cardinality (Database.find db "salaries")
    > Table.cardinality (Database.find db "employees"))

let test_employees_deterministic () =
  let a = W.generate (W.scaled 40) and b = W.generate (W.scaled 40) in
  List.iter
    (fun name ->
      Alcotest.check table_bag (name ^ " deterministic") (Database.find a name)
        (Database.find b name))
    [ "salaries"; "dept_manager" ]

let test_tpc_generator () =
  let db = tpc_db () in
  List.iter (check_period_table db)
    [ "region"; "nation"; "supplier"; "customer"; "part"; "partsupp"; "orders"; "lineitem" ];
  Alcotest.(check int) "5 regions" 5 (Table.cardinality (Database.find db "region"));
  Alcotest.(check int) "25 nations" 25 (Table.cardinality (Database.find db "nation"))

let test_employee_queries_run () =
  let m = mw (emp_db ()) in
  List.iter
    (fun (name, sql) ->
      let t = M.query m sql in
      Alcotest.(check bool) (name ^ " executes") true (Table.cardinality t >= 0))
    Q.employee

let test_tpch_queries_run () =
  let m = mw (tpc_db ()) in
  List.iter
    (fun (name, sql) ->
      let t = M.query m sql in
      Alcotest.(check bool) (name ^ " executes") true (Table.cardinality t >= 0))
    Q.tpch

let test_optimizations_agree_on_workload () =
  (* the heart of the ablation: all rewriter configurations produce the
     same relation on real workload queries (the literal rewriting on the
     row oracle) *)
  let queries =
    [ "join-1"; "join-3"; "agg-1"; "agg-2"; "agg-3"; "diff-1"; "diff-2" ]
  in
  let m_opt = mw ~options:Rewriter.optimized (emp_db ()) in
  let m_lit =
    M.create ~engine:M.Row ~options:Rewriter.literal ~db:(emp_db ()) ()
  in
  List.iter
    (fun name ->
      let sql = Q.lookup name Q.employee in
      Alcotest.check table_bag name (M.query m_lit sql) (M.query m_opt sql))
    queries

let test_baseline_agrees_on_joins () =
  (* positive RA: native approaches are snapshot-reducible, so they agree
     with the middleware modulo coalescing *)
  let db = emp_db () in
  let m = mw db in
  List.iter
    (fun name ->
      let sql = Q.lookup name Q.employee in
      let ours = M.query m sql in
      let algebra, _ = M.snapshot_algebra m sql in
      List.iter
        (fun style ->
          let native =
            Tkr_baseline.Baseline.eval_coalesced style db algebra
          in
          let relabeled = Table.of_array (Table.schema ours) (Table.rows native) in
          Alcotest.check table_bag
            (name ^ " vs " ^ Tkr_baseline.Baseline.style_name style)
            ours relabeled)
        [ Tkr_baseline.Baseline.Interval_preservation; Tkr_baseline.Baseline.Alignment ])
    [ "join-1"; "join-3"; "join-4" ]

let test_manager_coverage () =
  (* every department is managed at every time point: agg-2 (avg manager
     salary, ungrouped) should report no NULL gap rows except possibly at
     the very start when no manager has a salary yet *)
  let m = mw (emp_db ()) in
  let t = M.query m (Q.lookup "agg-2" Q.employee) in
  Alcotest.(check bool) "agg-2 has rows" true (Table.cardinality t > 0)

let test_tourism () =
  let db =
    Tkr_workload.Tourism.generate
      { Tkr_workload.Tourism.default with facilities = 30; stays_per_facility = 10 }
  in
  List.iter (check_period_table db) [ "facilities"; "stays" ];
  let m = mw db in
  List.iter
    (fun (name, sql) ->
      let t = M.query m sql in
      Alcotest.(check bool) (name ^ " executes") true (Table.cardinality t >= 0))
    Tkr_workload.Tourism.queries;
  (* the off-season gap rows exist: total-guests has stays_now = 0 rows *)
  let t = M.query m (Q.lookup "total-guests" Tkr_workload.Tourism.queries) in
  let has_gap =
    Array.exists
      (fun row -> Value.equal (Tuple.get row 0) (Value.Int 0))
      (Table.rows t)
  in
  Alcotest.(check bool) "off-season gap rows" true has_gap

let test_coalesce_input () =
  let t = W.coalesce_input ~n:500 ~seed:1 ~tmax:1000 in
  Alcotest.(check int) "rows" 500 (Table.cardinality t);
  let c = Tkr_engine.Ops.coalesce t in
  Alcotest.check table_bag "coalesced output is a fixpoint" c
    (Tkr_engine.Ops.coalesce c)

let suite =
  ( "workload",
    [
      Alcotest.test_case "employees generator" `Quick test_employees_generator;
      Alcotest.test_case "employees deterministic" `Quick test_employees_deterministic;
      Alcotest.test_case "tpc-bih generator" `Quick test_tpc_generator;
      Alcotest.test_case "all 10 employee queries run" `Slow test_employee_queries_run;
      Alcotest.test_case "all 11 tpch queries run" `Slow test_tpch_queries_run;
      Alcotest.test_case "optimizations agree on workload" `Slow
        test_optimizations_agree_on_workload;
      Alcotest.test_case "baselines agree on join queries" `Slow
        test_baseline_agrees_on_joins;
      Alcotest.test_case "manager coverage" `Quick test_manager_coverage;
      Alcotest.test_case "tourism dataset and queries" `Quick test_tourism;
      Alcotest.test_case "coalesce input generator" `Quick test_coalesce_input;
    ] )

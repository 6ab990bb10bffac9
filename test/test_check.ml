(* The static analyzer (Tkr_check): golden diagnostics where every TKR
   code of the registry triggers at least once, the linter's Table 1
   bug-matrix predictions, and property tests that the plan validator
   accepts every optimizer and rewriter output. *)

module M = Tkr_middleware.Middleware
module An = Tkr_sql.Analyzer
module Ast = Tkr_sql.Ast
module D = Tkr_check.Diagnostic
module Check = Tkr_check.Check
module Typecheck = Tkr_check.Typecheck
module Plan_check = Tkr_check.Plan_check
module Lint = Tkr_check.Lint
module Database = Tkr_engine.Database
module Schema = Tkr_relation.Schema
module Value = Tkr_relation.Value
module Expr = Tkr_relation.Expr
module Agg = Tkr_relation.Agg
module Algebra = Tkr_relation.Algebra
module W = Tkr_workload.Employees
module Q = Tkr_workload.Queries

let fresh () =
  let m = M.create () in
  Database.set_time_bounds (M.database m) ~tmin:0 ~tmax:24;
  ignore
    (M.execute_script m
       {|
       CREATE TABLE works (name text, skill text, b int, e int) PERIOD (b, e);
       INSERT INTO works VALUES ('Ann', 'SP', 3, 10), ('Joe', 'NS', 8, 16);
       CREATE TABLE plain (x int, y text);
     |});
  m

let codes ds = List.map (fun (d : D.t) -> d.D.code) ds
let pos0 = { Ast.line = 1; col = 1 }
let count = { Algebra.func = Agg.Count_star; agg_name = "c" }

(* hand-built schemas for the direct (non-SQL) triggers *)
let enc = (* an encoded relation: one data column plus the period *)
  Schema.make
    [ Schema.attr "x" Value.TInt; Schema.attr "__b" Value.TInt;
      Schema.attr "__e" Value.TInt ]

let enc_lookup = function "enc" -> Some enc | _ -> None

(* [M.check] never raises; [exec_err] captures the typed exceptions of
   the execution entry points *)
let chk sql () = M.check (fresh ()) sql

let exec_err sql () =
  let m = fresh () in
  match M.execute m sql with
  | _ -> []
  | exception M.Error d -> [ d ]
  | exception M.Rejected ds -> ds

(* TKR015 is unreachable through the parser (an unknown function name is
   a syntax error before the analyzer runs): call the analyzer on a
   hand-built AST instead *)
let unknown_aggregate () =
  let q =
    Ast.Select_q
      {
        distinct = false;
        items =
          [
            Ast.Item
              {
                item_expr =
                  Ast.Agg_call ("median", Ast.Arg (Ast.Ref ([ "x" ], pos0)), pos0);
                item_alias = None;
              };
          ];
        from = [ (Ast.Table { name = "t"; alias = None }, None) ];
        where = None;
        group_by = [];
        having = None;
      }
  in
  let cat =
    { An.cat_schema = (fun _ -> Schema.make [ Schema.attr "x" Value.TInt ]) }
  in
  match An.analyze_query cat q with _ -> [] | exception An.Error d -> [ d ]

(* one producer per registry code; the coverage test below enforces that
   this list spans the whole registry *)
let golden : (string * (unit -> D.t list)) list =
  [
    ("TKR001", chk "SELECT wat FROM works");
    ("TKR002", chk "SELECT name FROM works w1, works w2");
    ("TKR003", chk "SELECT x FROM missing");
    ("TKR004", chk "SELECT FROM works");
    ("TKR005", chk "SELECT 'oops");
    ("TKR010", chk "SEQ VT (SELECT name FROM (SEQ VT (SELECT name FROM works)) AS x)");
    ("TKR011", chk "SELECT name, skill FROM works UNION ALL SELECT name FROM works");
    ("TKR012", chk "SELECT name FROM works WHERE name IN (skill)");
    ("TKR013", chk "SELECT name FROM works WHERE count(*) > 1");
    ("TKR014", chk "SELECT sum(*) AS s FROM works");
    ("TKR015", unknown_aggregate);
    ("TKR016", chk "SELECT name FROM works HAVING name = 'a'");
    ("TKR017", chk "SELECT name FROM works GROUP BY skill");
    ("TKR018", chk "SELECT * FROM works GROUP BY skill");
    ("TKR019", chk "SELECT name FROM works ORDER BY 7");
    ("TKR020", chk "SEQ VT (SELECT x FROM plain)");
    ("TKR021", fun () ->
        let m = fresh () in
        (match M.query m "DROP TABLE plain" with
        | _ -> []
        | exception M.Error d -> [ d ]));
    ("TKR022", exec_err "INSERT INTO works VALUES ('x', 'y', 1)");
    ("TKR023", exec_err "INSERT INTO works VALUES (name, 'y', 1, 2)");
    ("TKR024", exec_err "CREATE TABLE t2 (a text, b text, e int) PERIOD (b, e)");
    ("TKR025", exec_err "UPDATE plain FOR PORTION OF vt FROM 1 TO 2 SET x = 1");
    ("TKR026", chk "INSERT INTO works VALUES ('x', 'y', NULL, 2)");
    ("TKR101", chk "SELECT name + 1 AS z FROM works");
    ("TKR102", chk "SELECT name FROM works WHERE name > 1");
    ("TKR103", chk "SELECT name FROM works WHERE b + 1");
    ("TKR104", chk "SELECT name FROM works WHERE b LIKE 'x%'");
    ("TKR105", chk "SELECT name FROM works WHERE b IN (1, 'x')");
    ("TKR106", chk "SELECT CASE WHEN b > 1 THEN 1 ELSE 'x' END AS c FROM works");
    ("TKR107", chk "SELECT sum(name) AS s FROM works");
    ("TKR108", fun () ->
        let lookup = function
          | "a" -> Some (Schema.make [ Schema.attr "x" Value.TInt ])
          | "b" -> Some (Schema.make [ Schema.attr "y" Value.TStr ])
          | _ -> None
        in
        Typecheck.algebra ~lookup (Algebra.Union (Rel "a", Rel "b")));
    ("TKR109", fun () ->
        snd (Typecheck.expr ~schema:enc (Expr.Col 9)));
    ("TKR110", chk "SELECT name FROM works WHERE name = NULL");
    ("TKR201", fun () -> Plan_check.logical (Algebra.Coalesce (Rel "enc")));
    ("TKR202", fun () ->
        let lookup = function
          | "short" -> Some (Schema.make [ Schema.attr "x" Value.TStr ])
          | _ -> None
        in
        Plan_check.physical ~lookup (Algebra.Coalesce (Rel "short")));
    ("TKR203", fun () ->
        Plan_check.physical ~lookup:enc_lookup
          (Algebra.Coalesce (Split ([ 5 ], Rel "enc", Rel "enc"))));
    ("TKR204", fun () ->
        (* not a mirrored pair: both splits have the same operand order *)
        Plan_check.physical ~lookup:enc_lookup
          (Algebra.Coalesce
             (Diff
                ( Split ([ 0 ], Rel "enc", Rel "enc"),
                  Split ([ 0 ], Algebra.Distinct (Rel "enc"), Rel "enc") ))));
    ("TKR205", fun () ->
        Plan_check.physical ~lookup:enc_lookup
          (Algebra.Coalesce (Agg ([], [ count ], Rel "enc"))));
    ("TKR206", fun () -> Plan_check.physical ~lookup:enc_lookup (Rel "enc"));
    ("TKR207", fun () ->
        Plan_check.physical ~lookup:enc_lookup
          (Algebra.Coalesce
             (Split_agg
                { sa_group = []; sa_aggs = [ count ]; sa_gap = None;
                  sa_child = Rel "enc" })));
    ("TKR207", fun () ->
        (* the converse: gap rows exist only for the empty group *)
        Plan_check.physical ~lookup:enc_lookup
          (Algebra.Coalesce
             (Split_agg
                { sa_group = [ 0 ]; sa_aggs = [ count ]; sa_gap = Some (0, 24);
                  sa_child = Rel "enc" })));
    ("TKR301", fun () ->
        Lint.plan Lint.teradata (Algebra.Agg ([], [ count ], Rel "t")));
    ("TKR302", fun () -> Lint.plan Lint.alignment (Algebra.Diff (Rel "t", Rel "t")));
    ("TKR303", fun () -> Lint.plan Lint.teradata (Algebra.Diff (Rel "t", Rel "t")));
    ("TKR304", fun () -> Lint.plan Lint.alignment (Rel "t"));
    (* abstract interpretation (Tkr_check.Absint) *)
    ("TKR401", chk "SELECT x FROM plain WHERE x > 5 AND x < 3");
    ("TKR402", chk "SELECT x FROM plain WHERE x > 5 AND x < 3");
    (* period columns of a plain query over a period table are seeded
       from the stored time bounds ([0,24] in [fresh]) *)
    ("TKR403", chk "SELECT name FROM works WHERE b >= 0");
    ("TKR404",
     chk "SELECT DISTINCT skill, count(*) AS c FROM works GROUP BY skill");
    ("TKR405", fun () ->
        fst
          (Check.physical ~lookup:enc_lookup
             (Algebra.Coalesce (Algebra.Coalesce (Rel "enc")))));
    ("TKR406", fun () ->
        fst
          (Check.logical ~lookup:enc_lookup
             (Algebra.Join
                ( Expr.(
                    And
                      ( Cmp (Eq, Col 0, Const (Value.Int 1)),
                        Cmp (Eq, Col 0, Const (Value.Int 2)) )),
                  Rel "enc", Rel "enc" ))));
    ("TKR407", chk "SELECT name FROM works WHERE e <= 0");
    ("TKR408", chk "SEQ VT AS OF 99 (SELECT name FROM works)");
  ]

let test_golden () =
  List.iter
    (fun (code, produce) ->
      let ds = produce () in
      if not (List.mem code (codes ds)) then
        Alcotest.failf "expected %s, got [%s]" code
          (String.concat "; " (codes ds)))
    golden

(* the golden list is complete: every code of the stable registry has a
   trigger (adding a code without a test fails here) *)
let test_registry_coverage () =
  let produced = List.concat_map (fun (_, produce) -> codes (produce ())) golden in
  List.iter
    (fun (code, _) ->
      if not (List.mem code produced) then
        Alcotest.failf "registry code %s never triggered" code)
    D.registry

let test_positions () =
  (* diagnostics anchor to the offending token, 1-based *)
  match M.check (fresh ()) "SELECT wat FROM works" with
  | [ d ] ->
      Alcotest.(check string) "code" "TKR001" d.D.code;
      Alcotest.(check (option (pair int int)))
        "position" (Some (1, 8))
        (Option.map (fun (p : D.pos) -> (p.line, p.col)) d.D.pos)
  | ds -> Alcotest.failf "expected one diagnostic, got %d" (List.length ds)

(* --- the linter's Table 1: which evaluation style has which bug --- *)

let test_table1 () =
  let agg = Algebra.Agg ([], [ count ], Rel "t") in
  let grouped =
    Algebra.Agg ([ Algebra.proj (Expr.Col 0) "g" ], [ count ], Rel "t")
  in
  let diff = Algebra.Diff (Rel "t", Rel "t") in
  let has p q c = List.mem c (codes (Lint.plan p q)) in
  (* the middleware's REWR pipeline is bug-free *)
  Alcotest.(check bool) "middleware AG" false (has Lint.middleware agg "TKR301");
  Alcotest.(check bool) "middleware BD" false (has Lint.middleware diff "TKR302");
  Alcotest.(check int) "middleware clean" 0
    (D.count_errors (Lint.plan Lint.middleware agg @ Lint.plan Lint.middleware diff));
  (* every baseline style has the AG bug on ungrouped aggregation ... *)
  List.iter
    (fun (p : Lint.profile) ->
      Alcotest.(check bool) (p.prof_name ^ " AG") true (has p agg "TKR301");
      Alcotest.(check bool)
        (p.prof_name ^ " grouped ok") false (has p grouped "TKR301"))
    [ Lint.interval_preservation; Lint.alignment; Lint.teradata ];
  (* ... and gets difference wrong (BD) or rejects it outright *)
  Alcotest.(check bool) "ip BD" true (has Lint.interval_preservation diff "TKR302");
  Alcotest.(check bool) "alignment BD" true (has Lint.alignment diff "TKR302");
  Alcotest.(check bool) "teradata no diff" true (has Lint.teradata diff "TKR303")

(* --- CHECK / strict mode through the middleware --- *)

let test_check_statement () =
  let m = fresh () in
  (match M.execute m "CHECK (SEQ VT (SELECT count(*) AS c FROM works))" with
  | M.Done msg ->
      Alcotest.(check string) "clean" "OK: no diagnostics" msg
  | M.Rows _ -> Alcotest.fail "CHECK must not return rows");
  match M.execute m "CHECK (SELECT name + 1 AS z FROM works)" with
  | M.Done msg ->
      let contains s sub =
        let n = String.length sub in
        let rec go i = i + n <= String.length s
                       && (String.sub s i n = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "reports TKR101" true (contains msg "TKR101")
  | M.Rows _ -> Alcotest.fail "CHECK must not return rows"

let test_rejects_before_execution () =
  let m = fresh () in
  (match M.query m "SELECT name + 1 AS z FROM works" with
  | _ -> Alcotest.fail "ill-typed query must be rejected"
  | exception M.Rejected ds ->
      Alcotest.(check bool) "TKR101" true (List.mem "TKR101" (codes ds)));
  (* warnings pass by default but fail under --Werror *)
  let warn = "SELECT name FROM works WHERE name = NULL" in
  ignore (M.query m warn);
  let strict = M.create ~strict:true ~db:(Database.create ()) () in
  Database.set_time_bounds (M.database strict) ~tmin:0 ~tmax:24;
  ignore
    (M.execute strict
       "CREATE TABLE works (name text, skill text, b int, e int) PERIOD (b, e)");
  match M.query strict warn with
  | _ -> Alcotest.fail "strict mode must reject warnings"
  | exception M.Rejected ds ->
      Alcotest.(check bool) "TKR110" true (List.mem "TKR110" (codes ds))

(* --- property: the plan validator accepts every optimizer output --- *)

let prop_optimizer_outputs_validate =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"plan validator accepts optimizer outputs"
       Test_optimizer.arb (fun q ->
         let optimized =
           Tkr_engine.Optimizer.optimize ~stats:Test_optimizer.stats
             ~lookup:Test_optimizer.lookup q
         in
         let lookup n =
           match Test_optimizer.lookup n with
           | s -> Some s
           | exception Schema.Unknown _ -> None
         in
         D.count_errors (fst (Check.logical ~lookup optimized)) = 0))

(* --- every REWR output over the workload passes the physical checks ---

   The middleware runs the validator after analyze, optimize and rewrite
   and raises [Rejected] on any error, so preparing the whole employee
   workload under all four rewrite configurations is the assertion. *)

let test_rewriter_outputs_validate () =
  let db = W.generate (W.scaled 30) in
  List.iter
    (fun (options, optimize) ->
      let m = M.create ~options ~optimize ~db () in
      List.iter
        (fun (name, sql) ->
          match M.prepare m sql with
          | p ->
              Alcotest.(check int)
                (Printf.sprintf "%s (optimize=%b)" name optimize)
                0
                (D.count_errors p.M.diags)
          | exception M.Rejected ds ->
              Alcotest.failf "%s rejected: %s" name (D.report_to_text ds))
        Q.employee)
    [
      (M.Rewriter.optimized, true);
      (M.Rewriter.optimized, false);
      (M.Rewriter.literal, true);
      (M.Rewriter.literal, false);
    ]

let suite =
  ( "static analyzer",
    [
      Alcotest.test_case "golden diagnostics" `Quick test_golden;
      Alcotest.test_case "registry coverage" `Quick test_registry_coverage;
      Alcotest.test_case "diagnostic positions" `Quick test_positions;
      Alcotest.test_case "Table 1 bug matrix" `Quick test_table1;
      Alcotest.test_case "CHECK statement" `Quick test_check_statement;
      Alcotest.test_case "reject before execution" `Quick
        test_rejects_before_execution;
      prop_optimizer_outputs_validate;
      Alcotest.test_case "REWR outputs validate" `Quick
        test_rewriter_outputs_validate;
    ] )

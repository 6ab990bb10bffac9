(* End-to-end middleware tests: the paper's running example entered as SQL
   (DDL + SEQ VT queries), checked against the exact relations of Figure 1,
   and cross-checked against the logical model. *)

open Fixtures
module M = Tkr_middleware.Middleware
module Table = Tkr_engine.Table
module Schema = Tkr_relation.Schema
module Value = Tkr_relation.Value
module Tuple = Tkr_relation.Tuple
module Rewriter = Tkr_sqlenc.Rewriter

let table_bag = Alcotest.testable Table.pp Table.equal_bag

let setup_sql =
  {|
  CREATE TABLE works (name text, skill text, b int, e int) PERIOD (b, e);
  INSERT INTO works VALUES
    ('Ann', 'SP', 3, 10), ('Joe', 'NS', 8, 16),
    ('Sam', 'SP', 8, 16), ('Ann', 'SP', 18, 20);
  CREATE TABLE assign (mach text, skill text, b int, e int) PERIOD (b, e);
  INSERT INTO assign VALUES
    ('M1', 'SP', 3, 12), ('M2', 'SP', 6, 14), ('M3', 'NS', 3, 16);
|}

let fresh ?options () =
  let m = M.create ?options () in
  (* pin the time domain to the paper's [0, 24) day *)
  Tkr_engine.Database.set_time_bounds (M.database m) ~tmin:0 ~tmax:24;
  ignore (M.execute_script m setup_sql);
  m

let row vs = Tuple.make vs

let expect_table schema rows = Table.make (Schema.make schema) rows

let qonduty_sql =
  "SEQ VT (SELECT count(*) AS cnt FROM works WHERE skill = 'SP')"

let test_figure_1b () =
  let m = fresh () in
  let result = M.query m qonduty_sql in
  let expected =
    expect_table
      [
        Schema.attr "cnt" Value.TInt;
        Schema.attr "vt_begin" Value.TInt;
        Schema.attr "vt_end" Value.TInt;
      ]
      [
        row [ Value.Int 0; Value.Int 0; Value.Int 3 ];
        row [ Value.Int 1; Value.Int 3; Value.Int 8 ];
        row [ Value.Int 2; Value.Int 8; Value.Int 10 ];
        row [ Value.Int 1; Value.Int 10; Value.Int 16 ];
        row [ Value.Int 0; Value.Int 16; Value.Int 18 ];
        row [ Value.Int 1; Value.Int 18; Value.Int 20 ];
        row [ Value.Int 0; Value.Int 20; Value.Int 24 ];
      ]
  in
  Alcotest.check table_bag "figure 1b" expected result

let test_figure_1c () =
  let m = fresh () in
  let result =
    M.query m
      "SEQ VT (SELECT skill FROM assign EXCEPT ALL SELECT skill FROM works)"
  in
  let expected =
    expect_table
      [
        Schema.attr "skill" Value.TStr;
        Schema.attr "vt_begin" Value.TInt;
        Schema.attr "vt_end" Value.TInt;
      ]
      [
        row [ Value.Str "SP"; Value.Int 6; Value.Int 8 ];
        row [ Value.Str "SP"; Value.Int 10; Value.Int 12 ];
        row [ Value.Str "NS"; Value.Int 3; Value.Int 8 ];
      ]
  in
  Alcotest.check table_bag "figure 1c" expected result

let test_all_option_configs_agree () =
  let configs =
    [
      Rewriter.optimized;
      Rewriter.literal;
      { Rewriter.final_coalesce_only = true; fused_split_agg = false };
      { Rewriter.final_coalesce_only = false; fused_split_agg = true };
    ]
  in
  let sqls =
    [
      qonduty_sql;
      "SEQ VT (SELECT skill FROM assign EXCEPT ALL SELECT skill FROM works)";
      "SEQ VT (SELECT skill, count(*) AS c FROM works GROUP BY skill)";
      "SEQ VT (SELECT a.mach FROM assign a, works w WHERE a.skill = w.skill)";
      "SEQ VT (SELECT DISTINCT skill FROM works)";
    ]
  in
  List.iter
    (fun sql ->
      let reference = M.query (fresh ~options:Rewriter.literal ()) sql in
      List.iter
        (fun options ->
          let result = M.query (fresh ~options ()) sql in
          Alcotest.check table_bag sql reference result)
        configs)
    sqls

let test_join_result () =
  let m = fresh () in
  let result =
    M.query m
      "SEQ VT (SELECT a.mach FROM assign a JOIN works w ON a.skill = w.skill)"
  in
  (* cross-check against the logical model (test_core's qmachines) *)
  let module PE = Tkr_sqlenc.Period_enc.Make (D24) in
  let logical = PE.to_table (NP.eval period_db qmachines) in
  let relabeled =
    Table.of_array (Table.schema result) (Table.rows logical)
  in
  Alcotest.check table_bag "machines via SQL" relabeled result

let test_order_by_limit () =
  let m = fresh () in
  let result =
    M.query m (qonduty_sql ^ " ORDER BY cnt DESC, vt_begin LIMIT 2")
  in
  Alcotest.(check int) "limit" 2 (Table.cardinality result);
  match Table.rows result with
  | [| r1; r2 |] ->
      Alcotest.(check bool) "sorted desc" true
        (Value.compare (Tuple.get r1 0) (Tuple.get r2 0) >= 0);
      Alcotest.(check bool) "top count is 2" true
        (Value.equal (Tuple.get r1 0) (Value.Int 2))
  | _ -> Alcotest.fail "expected 2 rows"

let test_non_snapshot_query () =
  let m = fresh () in
  (* without SEQ VT the period attributes are plain columns *)
  let result = M.query m "SELECT name, b, e FROM works WHERE skill = 'SP'" in
  Alcotest.(check int) "rows" 3 (Table.cardinality result);
  Alcotest.(check (list string)) "columns" [ "name"; "b"; "e" ]
    (Schema.names (Table.schema result))

let test_snapshot_rejects_plain_table () =
  let m = fresh () in
  ignore (M.execute m "CREATE TABLE plain (x int)");
  try
    ignore (M.query m "SEQ VT (SELECT x FROM plain)");
    Alcotest.fail "expected error"
  with M.Error _ -> ()

let test_subquery_in_snapshot () =
  let m = fresh () in
  let result =
    M.query m
      "SEQ VT (SELECT s.skill, count(*) AS c FROM (SELECT skill FROM works \
       UNION ALL SELECT skill FROM assign) AS s GROUP BY s.skill)"
  in
  (* spot check: at time 8, four SP rows exist (Ann, Sam, M1, M2) *)
  let hit =
    Array.exists
      (fun r ->
        Value.equal (Tuple.get r 0) (Value.Str "SP")
        && Value.equal (Tuple.get r 1) (Value.Int 4)
        && Value.equal (Tuple.get r 2) (Value.Int 8))
      (Table.rows result)
  in
  Alcotest.(check bool) "SP count 4 during [8,10)" true hit

let test_insert_widens_domain () =
  let m = fresh () in
  ignore (M.execute m "INSERT INTO works VALUES ('Zoe', 'SP', 0, 30)");
  let tmin, tmax = Tkr_engine.Database.time_bounds (M.database m) in
  Alcotest.(check (pair int int)) "bounds" (0, 30) (tmin, tmax)

(* a rejected INSERT changes nothing: no rows, and no wider domain *)
let test_rejected_insert_keeps_domain () =
  let m = fresh () in
  (try
     ignore
       (M.execute m
          "INSERT INTO works VALUES ('Zoe', 'SP', -5, 50), ('Max', 'SP', NULL, 3)")
   with M.Error _ -> ());
  let tmin, tmax = Tkr_engine.Database.time_bounds (M.database m) in
  Alcotest.(check (pair int int)) "bounds" (0, 24) (tmin, tmax);
  Alcotest.(check int) "rows" 4
    (Table.cardinality (Tkr_engine.Database.find (M.database m) "works"))

(* a NULL period value is a TKR026 diagnostic naming the column, from
   INSERT and from CHECK alike, and nothing is written *)
let test_null_period_insert () =
  let m = M.create () in
  ignore (M.execute m "CREATE TABLE t (x int, b int, e int) PERIOD (b, e)");
  let sql = "INSERT INTO t VALUES (1, NULL, 3)" in
  let d =
    match M.execute m sql with
    | _ -> Alcotest.fail "expected a diagnostic"
    | exception M.Error d -> d
  in
  let module D = Tkr_check.Diagnostic in
  Alcotest.(check string) "code" "TKR026" d.D.code;
  Alcotest.(check string) "names the column"
    "error[TKR026]: INSERT into t: period column b must be a non-NULL \
     integer, got NULL"
    (D.to_string d);
  Alcotest.(check (list string)) "CHECK flags it" [ D.to_string d ]
    (List.map D.to_string (M.check m sql));
  Alcotest.(check int) "nothing written" 0
    (Table.cardinality (Tkr_engine.Database.find (M.database m) "t"))

(* UPDATE checks the period values it would write like INSERT does:
   SET b = NULL is TKR026 from UPDATE and from CHECK, and the table keeps
   its rows *)
let test_null_period_update () =
  let m = M.create () in
  ignore
    (M.execute_script m
       "CREATE TABLE t (x int, b int, e int) PERIOD (b, e); INSERT INTO t \
        VALUES (1, 2, 3)");
  let sql = "UPDATE t SET b = NULL WHERE x = 1" in
  let d =
    match M.execute m sql with
    | _ -> Alcotest.fail "expected a diagnostic"
    | exception M.Error d -> d
  in
  let module D = Tkr_check.Diagnostic in
  Alcotest.(check string) "names the column"
    "error[TKR026]: UPDATE t: period column b must be a non-NULL integer, \
     got NULL"
    (D.to_string d);
  Alcotest.(check (list string)) "CHECK flags it" [ D.to_string d ]
    (List.map D.to_string (M.check m sql));
  Alcotest.(check (list string)) "a valid UPDATE checks clean" []
    (List.map D.to_string (M.check m "UPDATE t SET b = 1 WHERE x = 1"));
  Alcotest.(check (list (list string))) "nothing written" [ [ "1"; "2"; "3" ] ]
    (Array.to_list
       (Array.map
          (fun r -> List.map Value.to_string (Tuple.to_list r))
          (Table.rows (Tkr_engine.Database.find (M.database m) "t"))))

(* CHECK of a DELETE runs the checks DELETE runs before writing: FOR
   PORTION OF on a plain table is TKR025 and an unknown WHERE column is
   TKR001, from DELETE and from CHECK alike *)
let test_delete_checks () =
  let m = M.create () in
  ignore (M.execute_script m "CREATE TABLE p (x int); INSERT INTO p VALUES (1)");
  let module D = Tkr_check.Diagnostic in
  List.iter
    (fun (sql, code) ->
      let d =
        match M.execute m sql with
        | _ -> Alcotest.fail ("expected a diagnostic from " ^ sql)
        | exception (M.Error d | Tkr_sql.Analyzer.Error d) -> d
      in
      Alcotest.(check string) ("code of " ^ sql) code d.D.code;
      Alcotest.(check (list string)) ("CHECK flags " ^ sql) [ D.to_string d ]
        (List.map D.to_string (M.check m sql)))
    [
      ("DELETE FROM p FOR PORTION OF vt FROM 1 TO 5 WHERE x = 1", "TKR025");
      ("DELETE FROM p WHERE nosuch = 1", "TKR001");
    ];
  Alcotest.(check (list string)) "a valid DELETE checks clean" []
    (List.map D.to_string (M.check m "DELETE FROM p WHERE x = 1"));
  Alcotest.(check int) "CHECK deletes nothing" 1
    (Table.cardinality (Tkr_engine.Database.find (M.database m) "p"))

let test_drop_table () =
  let m = fresh () in
  ignore (M.execute m "DROP TABLE assign");
  try
    ignore (M.query m "SELECT * FROM assign");
    Alcotest.fail "expected unknown table"
  with _ -> ()

(* INSERT takes the declared column order of the catalog entry: every
   middleware over one database stores a row the same way, and DROP
   forgets the order with the table *)
let test_insert_order_in_catalog () =
  let stored m t =
    Array.to_list
      (Array.map Tuple.to_list
         (Table.rows (Tkr_engine.Database.find (M.database m) t)))
  in
  let ints = List.map (fun i -> Value.Int i) in
  let rows = Alcotest.(list (list (testable Value.pp Value.equal))) in
  let m1 = M.create () in
  ignore
    (M.execute m1 "CREATE TABLE t (b int, e int, name int) PERIOD (b, e)");
  let m2 = M.create ~db:(M.database m1) () in
  ignore (M.execute m1 "INSERT INTO t VALUES (1, 5, 7)");
  ignore (M.execute m2 "INSERT INTO t VALUES (1, 5, 7)");
  Alcotest.check rows "both middlewares store name|b|e"
    [ ints [ 7; 1; 5 ]; ints [ 7; 1; 5 ] ]
    (stored m1 "t");
  ignore (M.execute m1 "DROP TABLE t");
  let schema =
    Schema.make
      (List.map (fun n -> Schema.attr n Value.TInt) [ "x"; "y"; "z" ])
  in
  Tkr_engine.Database.add_table (M.database m1) "t" (Table.empty schema);
  ignore (M.execute m1 "INSERT INTO t VALUES (1, 2, 3)");
  Alcotest.check rows "a plain table re-registered after DROP keeps x|y|z"
    [ ints [ 1; 2; 3 ] ] (stored m1 "t")

let suite =
  ( "middleware (SQL end-to-end)",
    [
      Alcotest.test_case "figure 1b via SQL" `Quick test_figure_1b;
      Alcotest.test_case "figure 1c via SQL" `Quick test_figure_1c;
      Alcotest.test_case "all optimizer configs agree" `Quick
        test_all_option_configs_agree;
      Alcotest.test_case "join via SQL = logical model" `Quick test_join_result;
      Alcotest.test_case "order by / limit" `Quick test_order_by_limit;
      Alcotest.test_case "non-snapshot query" `Quick test_non_snapshot_query;
      Alcotest.test_case "SEQ VT rejects non-period tables" `Quick
        test_snapshot_rejects_plain_table;
      Alcotest.test_case "subquery inside SEQ VT" `Quick test_subquery_in_snapshot;
      Alcotest.test_case "insert widens time domain" `Quick test_insert_widens_domain;
      Alcotest.test_case "drop table" `Quick test_drop_table;
      Alcotest.test_case "rejected INSERT keeps the time domain" `Quick
        test_rejected_insert_keeps_domain;
      Alcotest.test_case "INSERT column order lives in the catalog" `Quick
        test_insert_order_in_catalog;
      Alcotest.test_case "NULL period INSERT is a diagnostic" `Quick
        test_null_period_insert;
      Alcotest.test_case "NULL period UPDATE is a diagnostic" `Quick
        test_null_period_update;
      Alcotest.test_case "DELETE checks are diagnostics under CHECK" `Quick
        test_delete_checks;
    ] )

(* Error paths and edge cases of the middleware: a production system's
   behaviour on bad input matters as much as on good input. *)

module M = Tkr_middleware.Middleware
module Database = Tkr_engine.Database
module Table = Tkr_engine.Table
module Value = Tkr_relation.Value
module Tuple = Tkr_relation.Tuple

let fresh () =
  let m = M.create () in
  Database.set_time_bounds (M.database m) ~tmin:0 ~tmax:24;
  ignore
    (M.execute_script m
       {|
       CREATE TABLE works (name text, skill text, b int, e int) PERIOD (b, e);
       INSERT INTO works VALUES ('Ann', 'SP', 3, 10);
     |});
  m

let expect_error name f =
  Alcotest.test_case name `Quick (fun () ->
      try
        ignore (f (fresh ()));
        Alcotest.failf "%s: expected an error" name
      with
      | M.Error _ | M.Rejected _ | Tkr_sql.Parser.Error _
      | Tkr_sql.Analyzer.Error _ | Tkr_sql.Lexer.Error _
      | Tkr_relation.Schema.Unknown _ ->
        ())

let errors =
  [
    expect_error "nested SEQ VT" (fun m ->
        M.query m "SEQ VT (SELECT name FROM (SEQ VT (SELECT * FROM works)) AS x)");
    expect_error "unknown table" (fun m -> M.query m "SELECT * FROM missing");
    expect_error "unknown column" (fun m -> M.query m "SELECT wat FROM works");
    expect_error "order by unknown column" (fun m ->
        M.query m "SELECT name FROM works ORDER BY nope");
    expect_error "order by out-of-range position" (fun m ->
        M.query m "SELECT name FROM works ORDER BY 7");
    expect_error "union incompatible arity" (fun m ->
        M.query m "SELECT name, skill FROM works UNION ALL SELECT name FROM works");
    expect_error "aggregate in where" (fun m ->
        M.query m "SELECT name FROM works WHERE count(*) > 1");
    expect_error "bare column with group by" (fun m ->
        M.query m "SELECT name FROM works GROUP BY skill");
    expect_error "insert arity mismatch" (fun m ->
        M.execute m "INSERT INTO works VALUES ('x', 'y', 1)");
    expect_error "insert non-literal" (fun m ->
        M.execute m "INSERT INTO works VALUES (name, 'y', 1, 2)");
    expect_error "update unknown column" (fun m ->
        M.execute m "UPDATE works SET wat = 1");
    expect_error "create with bad period column" (fun m ->
        M.execute m "CREATE TABLE t (a text, b int, e int) PERIOD (missing, e)");
    expect_error "create with non-int period" (fun m ->
        M.execute m "CREATE TABLE t (a text, b text, e int) PERIOD (b, e)");
    expect_error "select star with group by" (fun m ->
        M.query m "SELECT * FROM works GROUP BY skill");
    expect_error "query on DDL entry point" (fun m ->
        M.query m "DROP TABLE works");
    expect_error "limit non-integer" (fun m ->
        M.query m "SELECT name FROM works LIMIT x");
    expect_error "seq vt over later-dropped table" (fun m ->
        ignore (M.execute m "DROP TABLE works");
        M.query m "SEQ VT (SELECT name FROM works)");
  ]

(* edge cases that must NOT error *)

let test_empty_table_snapshot () =
  let m = M.create () in
  Database.set_time_bounds (M.database m) ~tmin:0 ~tmax:10;
  ignore (M.execute m "CREATE TABLE t (x text, b int, e int) PERIOD (b, e)");
  let r = M.query m "SEQ VT (SELECT count(*) AS c FROM t)" in
  (* count 0 over the whole domain *)
  Alcotest.(check int) "one gap row" 1 (Table.cardinality r);
  match (Table.rows r).(0) with
  | row ->
      Alcotest.(check bool) "count 0" true
        (Value.equal (Tuple.get row 0) (Value.Int 0));
      Alcotest.(check bool) "covers domain" true
        (Value.equal (Tuple.get row 1) (Value.Int 0)
        && Value.equal (Tuple.get row 2) (Value.Int 10))

let test_quoted_identifier_free_sql () =
  let m = fresh () in
  (* keywords are case-insensitive *)
  let r = M.query m "select NAME from WORKS where SKILL = 'SP'" in
  Alcotest.(check int) "case insensitive" 1 (Table.cardinality r)

let test_same_table_twice () =
  let m = fresh () in
  let r =
    M.query m
      "SEQ VT (SELECT w1.name FROM works w1, works w2 WHERE w1.name = w2.name)"
  in
  Alcotest.(check bool) "self join" true (Table.cardinality r >= 1)

let test_whole_domain_insert_then_query () =
  let m = fresh () in
  ignore (M.execute m "INSERT INTO works VALUES ('Zed', 'SP', 0, 24)");
  let r = M.query m "SEQ VT AS OF 0 (SELECT name FROM works)" in
  Alcotest.(check int) "only Zed at 0" 1 (Table.cardinality r)

(* An UPDATE's or DELETE's WHERE and SET clauses are type-checked
   before any row is read, as a query's are: an ill-typed one rejects
   the statement with the query's diagnostic, writes nothing, and CHECK
   of it returns that diagnostic.  Without the check the comparison of
   'Ann' with 5 raised from [Value.sql_compare] on the stored row. *)
let test_dml_type_errors () =
  let codes ds = List.map (fun (d : Tkr_check.Diagnostic.t) -> d.code) ds in
  let rejected sql =
    let m = fresh () in
    match M.execute m sql with
    | _ -> Alcotest.failf "%s: expected a rejection" sql
    | exception M.Rejected ds ->
        Alcotest.(check int) (sql ^ ": nothing written") 1
          (Table.cardinality (Database.find (M.database m) "works"));
        codes ds
  in
  let query = M.query (fresh ()) in
  Alcotest.(check (list string)) "the query's diagnostic" [ "TKR102" ]
    (match query "SELECT name FROM works WHERE name = 5" with
    | _ -> []
    | exception M.Rejected ds -> codes ds);
  Alcotest.(check (list string)) "UPDATE ... WHERE name = 5" [ "TKR102" ]
    (rejected "UPDATE works SET skill = 'x' WHERE name = 5");
  Alcotest.(check (list string)) "DELETE ... WHERE name = 5" [ "TKR102" ]
    (rejected "DELETE FROM works WHERE name = 5");
  Alcotest.(check (list string)) "UPDATE ... SET skill = b + name" [ "TKR101" ]
    (rejected "UPDATE works SET skill = b + name WHERE b = 3");
  Alcotest.(check (list string)) "CHECK (UPDATE ... b + name = 1)" [ "TKR101" ]
    (codes
       (M.check (fresh ())
          "CHECK (UPDATE works SET skill = 'x' WHERE name LIKE 'A%' AND b + name = 1)"));
  Alcotest.(check (list string)) "CHECK (DELETE ... FOR PORTION OF ... name = 5)"
    [ "TKR102" ]
    (codes
       (M.check (fresh ())
          "DELETE FROM works FOR PORTION OF PERIOD FROM 4 TO 6 WHERE name = 5"));
  Alcotest.(check (list string)) "a well-typed UPDATE checks clean" []
    (codes (M.check (fresh ()) "UPDATE works SET skill = 'x' WHERE name = 'Ann' AND b + 1 = 4"))

let suite =
  ( "middleware error handling",
    errors
    @ [
        Alcotest.test_case "empty period table aggregates" `Quick
          test_empty_table_snapshot;
        Alcotest.test_case "case-insensitive keywords" `Quick
          test_quoted_identifier_free_sql;
        Alcotest.test_case "self join with aliases" `Quick test_same_table_twice;
        Alcotest.test_case "AS OF after insert" `Quick
          test_whole_domain_insert_then_query;
        Alcotest.test_case "DML clauses are type-checked before reading rows"
          `Quick test_dml_type_errors;
      ] )

(* Lexer, parser and analyzer tests for the SQL front end. *)

module L = Tkr_sql.Lexer
module A = Tkr_sql.Ast
module P = Tkr_sql.Parser
module An = Tkr_sql.Analyzer
module Schema = Tkr_relation.Schema
module Value = Tkr_relation.Value
module Algebra = Tkr_relation.Algebra

let test_lexer_basic () =
  let toks = L.tokenize "SELECT a, b1 FROM t WHERE x >= 10.5 AND y <> 'it''s'" in
  Alcotest.(check int) "token count" 15 (List.length toks);
  (match toks with
  | L.IDENT "select" :: L.IDENT "a" :: L.COMMA :: L.IDENT "b1" :: _ -> ()
  | _ -> Alcotest.fail "unexpected token stream");
  (match List.filter (function L.STRING _ -> true | _ -> false) toks with
  | [ L.STRING "it's" ] -> ()
  | _ -> Alcotest.fail "string escaping failed")

let test_lexer_comments () =
  let toks = L.tokenize "SELECT 1 -- a comment\n, 2" in
  Alcotest.(check int) "tokens" 5 (List.length toks)

let test_lexer_errors () =
  (* lexical errors are TKR005 diagnostics carrying the source position *)
  (try
     ignore (L.tokenize "SELECT 'oops");
     Alcotest.fail "expected failure"
   with L.Error d ->
     Alcotest.(check string) "code" "TKR005" d.code;
     Alcotest.(check bool) "position" true (d.pos <> None));
  (try
     ignore (L.tokenize "SELECT #");
     Alcotest.fail "expected failure"
   with L.Error d -> Alcotest.(check string) "code" "TKR005" d.code)

let parse_q s =
  match P.statement s with
  | A.Query { q; _ } -> q
  | _ -> Alcotest.fail "expected a query"

let test_parse_select () =
  match parse_q "SELECT a AS x, t.b, count(*) FROM t WHERE a > 3 GROUP BY a HAVING count(*) > 1" with
  | A.Select_q s ->
      Alcotest.(check int) "items" 3 (List.length s.items);
      Alcotest.(check bool) "where" true (s.where <> None);
      Alcotest.(check int) "group" 1 (List.length s.group_by);
      Alcotest.(check bool) "having" true (s.having <> None)
  | _ -> Alcotest.fail "expected select"

let test_parse_seq_vt () =
  match parse_q "SEQ VT (SELECT skill FROM assign EXCEPT ALL SELECT skill FROM works)" with
  | A.Seq_vt (A.Except_q (true, _, _)) -> ()
  | _ -> Alcotest.fail "expected SEQ VT(EXCEPT ALL)"

let test_parse_joins () =
  match parse_q "SELECT * FROM a JOIN b ON a.x = b.x, c CROSS JOIN d" with
  | A.Select_q s ->
      Alcotest.(check int) "from items" 4 (List.length s.from);
      let conds = List.filter (fun (_, on) -> on <> None) s.from in
      Alcotest.(check int) "on conditions" 1 (List.length conds)
  | _ -> Alcotest.fail "expected select"

let test_parse_subquery () =
  match parse_q "SELECT x FROM (SELECT a AS x FROM t) AS sub WHERE x < 5" with
  | A.Select_q { from = [ (A.Subquery { sub_alias = "sub"; _ }, None) ]; _ } -> ()
  | _ -> Alcotest.fail "expected subquery in FROM"

let test_parse_case_like_in_between () =
  match
    parse_q
      "SELECT CASE WHEN a LIKE 'PROMO%' THEN 1 ELSE 0 END FROM t \
       WHERE b IN (1, 2, 3) AND c BETWEEN 5 AND 7"
  with
  | A.Select_q { items = [ A.Item { item_expr = A.Case ([ (A.Like _, _) ], Some _); _ } ]; _ } ->
      ()
  | _ -> Alcotest.fail "expected CASE/LIKE/IN/BETWEEN to parse"

let test_parse_order_limit () =
  match P.statement "SELECT a FROM t ORDER BY a DESC, 1 ASC LIMIT 10" with
  | A.Query { order_by = [ o1; _ ]; limit = Some 10; _ } ->
      Alcotest.(check bool) "desc" true o1.A.ord_desc
  | _ -> Alcotest.fail "expected order by + limit"

let test_parse_ddl () =
  (match P.statement "CREATE TABLE works (name text, skill text, b int, e int) PERIOD (b, e)" with
  | A.Create_table { tbl_name = "works"; cols; period = Some ("b", "e") } ->
      Alcotest.(check int) "cols" 4 (List.length cols)
  | _ -> Alcotest.fail "create table");
  match P.statement "INSERT INTO works VALUES ('Ann', 'SP', 3, 10), ('Joe', 'NS', 8, 16)" with
  | A.Insert { rows = [ _; _ ]; _ } -> ()
  | _ -> Alcotest.fail "insert"

let test_parse_script () =
  let stmts = P.script "SELECT a FROM t; SELECT b FROM u;" in
  Alcotest.(check int) "two statements" 2 (List.length stmts)

let test_parse_errors () =
  let expect_fail s =
    try
      ignore (P.statement s);
      Alcotest.failf "expected parse error for %S" s
    with P.Error _ -> ()
  in
  expect_fail "SELECT";
  expect_fail "SELECT a FROM";
  expect_fail "SELECT a FROM t WHERE";
  expect_fail "SELECT a FROM t extra garbage";
  expect_fail "SEQ (SELECT a FROM t)"

(* every reserved word stays reserved as a name, in either case; the
   few non-reserved ones stay accepted where they were *)
let non_reserved = [ "count"; "sum"; "avg"; "min"; "max"; "vt"; "period" ]

let name_contexts =
  [
    Printf.sprintf "SELECT a FROM %s";
    Printf.sprintf "SELECT a FROM t %s";
    Printf.sprintf "SELECT t.%s FROM t";
    Printf.sprintf "SELECT a AS %s FROM t";
    Printf.sprintf "CREATE TABLE %s (a int)";
    Printf.sprintf "CREATE TABLE t (%s int)";
    Printf.sprintf "INSERT INTO %s VALUES (1)";
    Printf.sprintf "UPDATE t SET %s = 1";
  ]

let parses s = match P.statement s with _ -> true | exception P.Error _ -> false

let test_keywords_reserved () =
  List.iter
    (fun k ->
      Alcotest.(check bool) ("is_keyword " ^ k) true (L.is_keyword k);
      let reserved = not (List.mem k non_reserved) in
      List.iter
        (fun ctx ->
          List.iter
            (fun w ->
              let s = ctx w in
              (* a table alias takes no non-reserved word either *)
              let want = (not reserved) && ctx "x" <> "SELECT a FROM t x" in
              Alcotest.(check bool) s want (parses s))
            [ k; String.uppercase_ascii k ])
        name_contexts)
    L.keywords;
  List.iter
    (fun w -> Alcotest.(check bool) ("not a keyword: " ^ w) false (L.is_keyword w))
    [ "a"; "t"; "salary"; "vt_begin"; "selects"; "" ]

let test_non_reserved_words () =
  (* a bare alias takes an aggregate name, not vt or period *)
  List.iter
    (fun k ->
      let s = Printf.sprintf "SELECT a %s FROM t" k in
      Alcotest.(check bool) s (List.mem k [ "count"; "sum"; "avg"; "min"; "max" ]) (parses s))
    non_reserved;
  (match parse_q "SELECT count(*) AS count, max(a) max FROM period" with
  | A.Select_q { items = [ A.Item { item_alias = Some "count"; _ }; A.Item { item_alias = Some "max"; _ } ]; from = [ (A.Table { name = "period"; _ }, None) ]; _ } -> ()
  | _ -> Alcotest.fail "aggregate names as aliases, period as a table");
  Alcotest.(check bool) "vt as a column" true
    (parses "SEQ VT (SELECT w.vt FROM vt w WHERE w.vt > 1)")

(* the byte span of a top-level AS OF point's literal *)
let test_as_of_point_span () =
  let span s =
    match P.statement s with A.Query { as_of_span; _ } -> as_of_span | _ -> None
  in
  let lit s = Option.map (fun (a, b) -> String.sub s a (b - a)) (span s) in
  Alcotest.(check (option string)) "literal" (Some "42")
    (lit "SEQ VT AS OF 42 (SELECT a FROM t)");
  Alcotest.(check (option string)) "sign included" (Some "- 7")
    (lit "seq vt as of - 7 (SELECT a FROM t) ORDER BY a");
  Alcotest.(check (option string)) "after a comment and a newline" (Some "0042")
    (lit "-- 13 AS OF 9\n (SEQ VT\n  AS OF 0042 (SELECT a FROM t))");
  Alcotest.(check (option (pair int int))) "no AS OF" None
    (span "SEQ VT (SELECT a FROM t)");
  Alcotest.(check (option (pair int int))) "not top level" None
    (span "SEQ VT AS OF 1 (SELECT a FROM t) UNION SEQ VT AS OF 2 (SELECT a FROM t)");
  (match P.script "SELECT a FROM t; SEQ VT AS OF 5 (SELECT a FROM t)" with
  | [ A.Query { as_of_span = None; _ }; A.Query { as_of_span = Some (30, 31); _ } ] -> ()
  | _ -> Alcotest.fail "script offsets count from the script's start")

(* --- analyzer --- *)

let catalog : An.catalog =
  {
    cat_schema =
      (function
      | "works" ->
          Schema.make [ Schema.attr "name" Value.TStr; Schema.attr "skill" Value.TStr ]
      | "assign" ->
          Schema.make [ Schema.attr "mach" Value.TStr; Schema.attr "skill" Value.TStr ]
      | n -> raise (Schema.Unknown n));
  }

let analyze s = An.analyze_query catalog (parse_q s)

let test_analyze_names () =
  let a = analyze "SELECT w.name, skill FROM works w" in
  Alcotest.(check (list string)) "output names" [ "name"; "skill" ]
    (Schema.names a.schema)

let test_analyze_ambiguous () =
  (try
     ignore (analyze "SELECT skill FROM works, assign");
     Alcotest.fail "expected ambiguity error"
   with An.Error _ -> ());
  (try
     ignore (analyze "SELECT nosuch FROM works");
     Alcotest.fail "expected unknown column"
   with An.Error _ -> ());
  try
    ignore (analyze "SELECT name FROM nosuch");
    Alcotest.fail "expected unknown table"
  with An.Error _ -> ()

let test_analyze_join_planning () =
  (* the equality conjunct must end up in the join, not a post-filter *)
  let a =
    analyze "SELECT w.name FROM works w, assign a WHERE w.skill = a.skill AND w.name = 'Ann'"
  in
  let rec has_cross = function
    | Algebra.Join (Tkr_relation.Expr.Const (Value.Bool true), _, _) -> true
    | Algebra.Join (_, l, r) -> has_cross l || has_cross r
    | Algebra.Select (_, q) | Algebra.Project (_, q) | Algebra.Distinct q -> has_cross q
    | _ -> false
  in
  Alcotest.(check bool) "no cross product" false (has_cross a.algebra)

let test_analyze_agg () =
  let a =
    analyze
      "SELECT skill, count(*) AS c, avg(1) FROM works GROUP BY skill HAVING count(*) > 0"
  in
  Alcotest.(check (list string)) "names" [ "skill"; "c"; "avg" ]
    (Schema.names a.schema);
  (* grouping column referenced bare, non-grouped column rejected *)
  try
    ignore (analyze "SELECT name FROM works GROUP BY skill");
    Alcotest.fail "expected group-by error"
  with An.Error _ -> ()

let test_analyze_agg_in_where () =
  try
    ignore (analyze "SELECT name FROM works WHERE count(*) > 1");
    Alcotest.fail "expected error for aggregate in WHERE"
  with An.Error _ -> ()

let test_analyze_setops () =
  let a = analyze "SELECT skill FROM works UNION ALL SELECT skill FROM assign" in
  (match a.algebra with Algebra.Union _ -> () | _ -> Alcotest.fail "union");
  let a = analyze "SELECT skill FROM works INTERSECT ALL SELECT skill FROM assign" in
  (match a.algebra with Algebra.Diff (_, Algebra.Diff _) -> () | _ -> Alcotest.fail "intersect");
  let a = analyze "SELECT skill FROM works EXCEPT SELECT skill FROM assign" in
  match a.algebra with
  | Algebra.Diff (Algebra.Distinct _, Algebra.Distinct _) -> ()
  | _ -> Alcotest.fail "set except"

let suite =
  ( "sql front end",
    [
      Alcotest.test_case "lexer basics" `Quick test_lexer_basic;
      Alcotest.test_case "lexer comments" `Quick test_lexer_comments;
      Alcotest.test_case "lexer errors" `Quick test_lexer_errors;
      Alcotest.test_case "parse select" `Quick test_parse_select;
      Alcotest.test_case "parse SEQ VT" `Quick test_parse_seq_vt;
      Alcotest.test_case "parse joins" `Quick test_parse_joins;
      Alcotest.test_case "parse subquery" `Quick test_parse_subquery;
      Alcotest.test_case "parse case/like/in/between" `Quick test_parse_case_like_in_between;
      Alcotest.test_case "parse order/limit" `Quick test_parse_order_limit;
      Alcotest.test_case "parse DDL" `Quick test_parse_ddl;
      Alcotest.test_case "parse script" `Quick test_parse_script;
      Alcotest.test_case "parse errors" `Quick test_parse_errors;
      Alcotest.test_case "keywords stay reserved names" `Quick test_keywords_reserved;
      Alcotest.test_case "non-reserved words stay accepted" `Quick
        test_non_reserved_words;
      Alcotest.test_case "AS OF point span" `Quick test_as_of_point_span;
      Alcotest.test_case "analyze names" `Quick test_analyze_names;
      Alcotest.test_case "analyze name errors" `Quick test_analyze_ambiguous;
      Alcotest.test_case "analyze join planning" `Quick test_analyze_join_planning;
      Alcotest.test_case "analyze aggregates" `Quick test_analyze_agg;
      Alcotest.test_case "aggregate in WHERE rejected" `Quick test_analyze_agg_in_where;
      Alcotest.test_case "analyze set operations" `Quick test_analyze_setops;
    ] )

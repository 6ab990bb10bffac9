(* The vectorized engine (Tkr_vec): batch representation roundtrips,
   selection-vector edge cases, per-operator differential tests against the
   interpreted row oracle, and qcheck properties asserting byte-identity of
   full random plans, plus the middleware Row/Vec end-to-end surface. *)

open Fixtures
module Value = Tkr_relation.Value
module Schema = Tkr_relation.Schema
module Tuple = Tkr_relation.Tuple
module Expr = Tkr_relation.Expr
module Algebra = Tkr_relation.Algebra
module Agg = Tkr_relation.Agg
module Table = Tkr_engine.Table
module Database = Tkr_engine.Database
module Exec = Tkr_engine.Exec
module Batch = Tkr_engine.Batch
module Veval = Tkr_vec.Veval
module Vexec = Tkr_vec.Vexec
module M = Tkr_middleware.Middleware
module Rewriter = Tkr_sqlenc.Rewriter
module PE = Tkr_sqlenc.Period_enc.Make (D24)

let check = Alcotest.(check bool)

(* byte-identity: same rows in the same order, and the same rendered
   text (the surface the CI differential job diffs) *)
let byte_identical a b =
  let ra = Table.rows a and rb = Table.rows b in
  Array.length ra = Array.length rb
  && Array.for_all2 Tuple.equal ra rb
  && String.equal (Table.to_text a) (Table.to_text b)

(* the engine's encoded test database: Figure 1 under the period encoding *)
let fig1_db () =
  let db = Database.create ~tmin:0 ~tmax:24 () in
  Database.add_period_table db "works" (PE.to_table works_period);
  Database.add_period_table db "assign" (PE.to_table assign_period);
  db

let differential db q = byte_identical (Exec.eval db q) (Vexec.eval db q)

(* ---- batch representation ---- *)

let mixed_schema =
  Schema.make
    [
      Schema.attr "i" Value.TInt;
      Schema.attr "f" Value.TFloat;
      Schema.attr "s" Value.TStr;
      Schema.attr "b" Value.TBool;
    ]

let mixed_rows =
  [|
    Tuple.make [ Value.Int 1; Value.Float 1.5; Value.Str "x"; Value.Bool true ];
    Tuple.make [ Value.Null; Value.Null; Value.Null; Value.Null ];
    Tuple.make [ Value.Int 3; Value.Float nan; Value.Str ""; Value.Bool false ];
  |]

let test_roundtrip () =
  let tbl = Table.of_array mixed_schema mixed_rows in
  check "columnar/of_batch roundtrips every value (incl. NULLs, NaN)" true
    (byte_identical tbl (Table.of_batch (Table.columnar tbl)));
  (* a column that mixes types falls back to Boxed and still roundtrips *)
  let s = Schema.make [ Schema.attr "v" Value.TInt ] in
  let rows = [| Tuple.make [ Value.Int 1 ]; Tuple.make [ Value.Str "oops" ] |] in
  let tbl = Table.of_array s rows in
  check "type-mismatched column roundtrips via the boxed fallback" true
    (byte_identical tbl (Table.of_batch (Table.columnar tbl)));
  (* the columnar image is kept on the table value *)
  let tbl = Table.of_array mixed_schema mixed_rows in
  check "columnar is built once per table value" true
    (Table.columnar tbl == Table.columnar tbl)

let test_selection_edges () =
  let tbl = Table.of_array mixed_schema mixed_rows in
  let b = Table.columnar tbl in
  let empty = Batch.with_sel b [||] in
  check "empty selection has length 0" true (Batch.length empty = 0);
  check "empty selection renders an empty table" true
    (Table.cardinality (Table.of_batch empty) = 0);
  let full = Batch.with_sel b [| 0; 1; 2 |] in
  check "full selection reproduces the table" true
    (byte_identical tbl (Table.of_batch full));
  let single = Batch.with_sel b [| 1 |] in
  check "single-row selection picks that physical row" true
    (Tuple.equal (Table.rows (Table.of_batch single)).(0) mixed_rows.(1));
  let reordered = Batch.with_sel b [| 2; 0 |] in
  check "selection order is logical order" true
    (let rows = Table.rows (Table.of_batch reordered) in
     Tuple.equal rows.(0) mixed_rows.(2) && Tuple.equal rows.(1) mixed_rows.(0));
  check "compact preserves the logical rows" true
    (byte_identical
       (Table.of_batch reordered)
       (Table.of_batch (Batch.compact reordered)))

let test_empty_batch () =
  let tbl = Table.of_array mixed_schema [||] in
  let b = Table.columnar tbl in
  check "empty table gives a zero-length batch" true (Batch.length b = 0);
  check "empty batch roundtrips" true (byte_identical tbl (Table.of_batch b));
  check "filter over an empty batch selects nothing" true
    (Veval.filter b (Expr.Cmp (Expr.Eq, Expr.Col 0, Expr.Const (Value.Int 1)))
    = [||])

(* ---- per-operator differentials on encoded Figure 1 plans ---- *)

let works = Algebra.Rel "works"
let assign = Algebra.Rel "assign"
let col i = Expr.Col i
let str_const s = Expr.Const (Value.Str s)

let test_op_select () =
  let db = fig1_db () in
  check "select: vec = row" true
    (differential db
       (Algebra.Select (Expr.Cmp (Expr.Eq, col 1, str_const "SP"), works)));
  (* conjunct fusion: two conjuncts, second only sees survivors *)
  check "select with fused conjuncts: vec = row" true
    (differential db
       (Algebra.Select
          ( Expr.And
              ( Expr.Cmp (Expr.Eq, col 1, str_const "SP"),
                Expr.Cmp (Expr.Lt, col 2, Expr.Const (Value.Int 11)) ),
            works )))

let test_op_project () =
  let db = fig1_db () in
  check "project (expressions over periods): vec = row" true
    (differential db
       (Algebra.Project
          ( [
              Algebra.proj (col 0) "name";
              Algebra.proj
                (Expr.Binop (Expr.Sub, col 3, col 2))
                "len";
            ],
            works )))

let test_op_join () =
  let db = fig1_db () in
  (* equi-join on skill with interval-overlap residual: the hash path *)
  let overlap =
    Expr.And
      ( Expr.Cmp (Expr.Eq, col 1, Expr.Col 5),
        Expr.And
          ( Expr.Cmp (Expr.Lt, col 2, Expr.Col 7),
            Expr.Cmp (Expr.Lt, Expr.Col 6, col 3) ) )
  in
  check "hash join with residual: vec = row" true
    (differential db (Algebra.Join (overlap, works, assign)));
  (* no equi key: the nested-loop path *)
  let lt = Expr.Cmp (Expr.Lt, col 2, Expr.Col 6) in
  check "nested-loop join: vec = row" true
    (differential db (Algebra.Join (lt, works, assign)))

let test_op_union_diff () =
  let db = fig1_db () in
  check "union all: vec = row" true
    (differential db (Algebra.Union (works, works)));
  let sp = Algebra.Select (Expr.Cmp (Expr.Eq, col 1, str_const "SP"), works) in
  check "except all: vec = row" true
    (differential db (Algebra.Diff (works, sp)));
  check "except all (empty right): vec = row" true
    (differential db
       (Algebra.Diff (works, Algebra.ConstRel (Tkr_sqlenc.Period_enc.encoded_schema works_schema, []))))

let test_op_agg_distinct () =
  let db = fig1_db () in
  check "group-by aggregate: vec = row" true
    (differential db
       (Algebra.Agg
          ( [ Algebra.proj (col 1) "skill" ],
            [
              { Algebra.func = Agg.Count_star; agg_name = "cnt" };
              { Algebra.func = Agg.Min (col 2); agg_name = "mn" };
            ],
            works )));
  check "global aggregate over empty input: vec = row" true
    (differential db
       (Algebra.Agg
          ( [],
            [ { Algebra.func = Agg.Count_star; agg_name = "cnt" } ],
            Algebra.ConstRel (Tkr_sqlenc.Period_enc.encoded_schema works_schema, []) )));
  check "distinct: vec = row" true
    (differential db
       (Algebra.Distinct (Algebra.Project ([ Algebra.proj (col 1) "skill" ], works))))

let test_op_temporal () =
  let db = fig1_db () in
  check "coalesce: vec = row" true
    (differential db (Algebra.Coalesce works));
  check "split (shared child): vec = row" true
    (let w = works in
     differential db (Algebra.Split ([ 1 ], w, w)));
  check "split (two children): vec = row" true
    (differential db (Algebra.Split ([ 1 ], works, assign)));
  check "split_agg grouped: vec = row" true
    (differential db
       (Algebra.Split_agg
          {
            sa_group = [ 1 ];
            sa_aggs = [ { Algebra.func = Agg.Count_star; agg_name = "cnt" } ];
            sa_gap = None;
            sa_child = works;
          }));
  check "split_agg with gap filling: vec = row" true
    (differential db
       (Algebra.Split_agg
          {
            sa_group = [];
            sa_aggs = [ { Algebra.func = Agg.Count_star; agg_name = "cnt" } ];
            sa_gap = Some (0, 24);
            sa_child = works;
          }))

(* NULL-heavy inputs: every operator's NULL semantics must match the
   oracle (NULL join keys never match, NULLs group together, NULL
   predicate results drop the row) *)
let test_null_heavy () =
  let s =
    Schema.make
      [
        Schema.attr "k" Value.TInt;
        Schema.attr "v" Value.TInt;
        Schema.attr "b" Value.TInt;
        Schema.attr "e" Value.TInt;
      ]
  in
  let rows =
    [
      Tuple.make [ Value.Null; Value.Int 1; Value.Int 0; Value.Int 5 ];
      Tuple.make [ Value.Int 1; Value.Null; Value.Int 2; Value.Int 8 ];
      Tuple.make [ Value.Null; Value.Null; Value.Int 3; Value.Int 9 ];
      Tuple.make [ Value.Int 1; Value.Int 4; Value.Int 1; Value.Int 4 ];
    ]
  in
  let db = Database.create ~tmin:0 ~tmax:24 () in
  Database.add_period_table db "t" (Table.make s rows);
  let t = Algebra.Rel "t" in
  check "NULL keys: hash join never matches them (vec = row)" true
    (differential db
       (Algebra.Join (Expr.Cmp (Expr.Eq, col 0, Expr.Col 4), t, t)));
  check "NULL groups coincide in GROUP BY (vec = row)" true
    (differential db
       (Algebra.Agg
          ( [ Algebra.proj (col 0) "k" ],
            [ { Algebra.func = Agg.Sum (col 1); agg_name = "s" } ],
            t )));
  check "NULL predicate drops rows (vec = row)" true
    (differential db
       (Algebra.Select (Expr.Cmp (Expr.Gt, col 1, Expr.Const (Value.Int 0)), t)));
  check "IS NULL selects them (vec = row)" true
    (differential db (Algebra.Select (Expr.Is_null (col 0), t)));
  check "distinct with NULLs (vec = row)" true
    (differential db
       (Algebra.Distinct (Algebra.Project ([ Algebra.proj (col 0) "k" ], t))));
  check "except all with NULLs (vec = row)" true
    (differential db
       (Algebra.Diff (t, Algebra.Select (Expr.Is_null (col 0), t))))

(* ---- qcheck: random plans are byte-identical, row vs vec ---- *)

let rewrite_random ((q, _tys), (wfacts, afacts)) =
  let works_p = NP.P.of_facts works_schema wfacts in
  let assign_p = NP.P.of_facts assign_schema afacts in
  let db = Database.create ~tmin:0 ~tmax:24 () in
  Database.add_period_table db "works" (PE.to_table works_p);
  Database.add_period_table db "assign" (PE.to_table assign_p);
  let lookup = function
    | "works" -> works_schema
    | "assign" -> assign_schema
    | n -> raise (Schema.Unknown n)
  in
  (db, Rewriter.rewrite ~options:Rewriter.optimized ~tmin:0 ~tmax:24 ~lookup q)

let prop_random_plans =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:120
       ~name:"random plan: vec rows = row-oracle rows (byte-identical)"
       Test_representation.arb
       (fun input ->
         let db, q' = rewrite_random input in
         differential db q'))

(* ---- middleware end to end ---- *)

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

let e2e_queries =
  [
    "SEQ VT (SELECT count(*) AS cnt FROM works WHERE skill = 'SP')";
    "SEQ VT (SELECT w.name, a.mach FROM works w JOIN assign a ON w.skill = \
     a.skill)";
    "SEQ VT (SELECT skill, count(*) AS cnt FROM works GROUP BY skill)";
    "SEQ VT (SELECT DISTINCT skill FROM works)";
    "SELECT name, skill FROM works EXCEPT ALL SELECT name, skill FROM works \
     WHERE skill = 'NS'";
    (* join residuals evaluated row-at-a-time (IN, LIKE, CASE) *)
    "SELECT w.name, a.mach FROM works w JOIN assign a ON w.skill = a.skill \
     WHERE w.name IN ('Joe') OR a.mach = 'M1'";
    "SEQ VT (SELECT w.name, a.mach FROM works w JOIN assign a ON w.skill = \
     a.skill WHERE w.name LIKE 'J%' OR a.mach = 'M1')";
    "SELECT w.name, a.mach FROM works w JOIN assign a ON w.skill = a.skill \
     WHERE CASE WHEN a.mach = 'M1' THEN w.b ELSE 0 END > 2";
  ]

let test_middleware_engines () =
  let fresh engine =
    let m = M.create ~engine () in
    Tkr_engine.Database.set_time_bounds (M.database m) ~tmin:0 ~tmax:24;
    ignore (M.execute_script m setup_sql);
    m
  in
  let mrow = fresh M.Row and mvec = fresh M.Vec in
  check "middleware reports its engine" true
    (M.engine mrow = M.Row && M.engine mvec = M.Vec);
  List.iter
    (fun sql ->
      check (Printf.sprintf "middleware row = vec: %s" sql) true
        (byte_identical (M.query mrow sql) (M.query mvec sql)))
    e2e_queries

(* ---- the shipped default at benchmark scale ---- *)

(* the benchmark's catalog: 1000 employees over [0, 4000) *)
let bench_db =
  lazy
    (Tkr_workload.Employees.generate
       { (Tkr_workload.Employees.scaled 1000) with tmax = 4000 })

(* the inner queries of the benchmark's AS OF reads: the four served
   shapes, then the three read after writes *)
let serve_shapes =
  [
    "SELECT d.dept_no, s.emp_no, s.salary FROM dept_emp d, salaries s WHERE \
     d.emp_no = s.emp_no";
    "SELECT d.dept_no, avg(s.salary) AS avg_salary FROM dept_emp d, salaries \
     s WHERE d.emp_no = s.emp_no GROUP BY d.dept_no";
    "SELECT m.dept_no FROM dept_manager m, salaries s WHERE m.emp_no = \
     s.emp_no AND s.salary > 70000";
    "SELECT emp_no FROM employees EXCEPT ALL SELECT emp_no FROM dept_manager";
  ]

let write_read_shapes =
  [
    "SELECT title, count(*) AS n FROM titles GROUP BY title";
    "SELECT d.dept_no, count(*) AS n FROM titles t, dept_emp d WHERE \
     t.emp_no = d.emp_no GROUP BY d.dept_no";
    "SELECT t.title, avg(s.salary) AS pay FROM salaries s, titles t WHERE \
     s.emp_no = t.emp_no GROUP BY t.title";
  ]

(* the default middleware (vec, index and pruning on) renders every
   benchmark statement byte for byte like the row oracle with index and
   pruning off *)
let test_bench_scale_identity () =
  let db = Lazy.force bench_db in
  let m = M.create ~db () in
  let oracle = M.create ~engine:M.Row ~index:false ~prune:false ~db () in
  check "vec is the default engine" true (M.engine m = M.Vec);
  let as_of =
    List.concat_map
      (fun q ->
        List.map
          (fun t -> Printf.sprintf "SEQ VT AS OF %d (%s)" t q)
          [ 600; 2000; 3500 ])
      (serve_shapes @ write_read_shapes)
  in
  List.iter
    (fun sql ->
      if not (byte_identical (M.query oracle sql) (M.query m sql)) then
        Alcotest.failf "default differs from the row oracle: %s" sql)
    (List.map snd Tkr_workload.Queries.employee @ as_of)

(* A warm execution of the hottest served statement allocates at most
   10k words directly in the major heap (major minus promoted words):
   operator scratch buffers are reused, projections share columns, and
   constant filters test rows in place. *)
let test_alloc_guard () =
  let m = M.create ~engine:M.Vec ~db:(Lazy.force bench_db) () in
  let p =
    M.prepare m
      (Printf.sprintf "SEQ VT AS OF 2000 (%s)" (List.nth serve_shapes 1))
  in
  ignore (M.run_prepared m p);
  let _, promoted0, major0 = Gc.counters () in
  ignore (M.run_prepared m p);
  let _, promoted1, major1 = Gc.counters () in
  let direct = major1 -. major0 -. (promoted1 -. promoted0) in
  if direct > 10_000. then
    Alcotest.failf "warm agg-1 AS OF 2000 allocated %.0f words directly in \
                    the major heap (bound 10000)" direct

let suite =
  ( "vectorized engine (Tkr_vec)",
    [
      Alcotest.test_case "batch: roundtrips (typed, boxed, memoized)" `Quick
        test_roundtrip;
      Alcotest.test_case "batch: selection-vector edge cases" `Quick
        test_selection_edges;
      Alcotest.test_case "batch: empty batches" `Quick test_empty_batch;
      Alcotest.test_case "operator: select" `Quick test_op_select;
      Alcotest.test_case "operator: project" `Quick test_op_project;
      Alcotest.test_case "operator: join (hash + nested loop)" `Quick
        test_op_join;
      Alcotest.test_case "operator: union / except all" `Quick
        test_op_union_diff;
      Alcotest.test_case "operator: aggregate / distinct" `Quick
        test_op_agg_distinct;
      Alcotest.test_case "operator: coalesce / split / split_agg" `Quick
        test_op_temporal;
      Alcotest.test_case "NULL-heavy inputs" `Quick test_null_heavy;
      prop_random_plans;
      Alcotest.test_case "middleware: row vs vec end to end" `Quick
        test_middleware_engines;
      Alcotest.test_case "benchmark scale: default = row oracle" `Slow
        test_bench_scale_identity;
      Alcotest.test_case "warm serve read: direct major allocation" `Quick
        test_alloc_guard;
    ] )

(* The cost-based optimizer is semantics-preserving: optimized and
   unoptimized plans produce identical multisets on random join queries,
   on the paper workload, and through the full snapshot pipeline. *)

module O = Tkr_engine.Optimizer
module M = Tkr_middleware.Middleware
module W = Tkr_workload.Employees
module Q = Tkr_workload.Queries
module Table = Tkr_engine.Table
module Database = Tkr_engine.Database
module Exec = Tkr_engine.Exec
module Schema = Tkr_relation.Schema
module Value = Tkr_relation.Value
module Tuple = Tkr_relation.Tuple
module Expr = Tkr_relation.Expr
module Algebra = Tkr_relation.Algebra

let table_bag = Alcotest.testable Table.pp Table.equal_bag

(* three small tables with different sizes to trigger reordering *)
let schema name = Schema.make [ Schema.attr name Value.TInt; Schema.attr (name ^ "v") Value.TStr ]

let mk n count =
  Table.make (schema n)
    (List.init count (fun i ->
         Tuple.make [ Value.Int (i mod 7); Value.Str (if i mod 2 = 0 then "x" else "y") ]))

let db () =
  let db = Database.create () in
  Database.add_table db "big" (mk "a" 60);
  Database.add_table db "mid" (mk "b" 20);
  Database.add_table db "small" (mk "c" 4);
  db

let lookup = function
  | "big" -> schema "a"
  | "mid" -> schema "b"
  | "small" -> schema "c"
  | n -> raise (Schema.Unknown n)

let stats = { O.card = (function "big" -> 60 | "mid" -> 20 | "small" -> 4 | _ -> 0) }

(* random three-way join queries with conjunct pools *)
let gen_join_query =
  let open QCheck.Gen in
  let key t = match t with "big" -> 0 | "mid" -> 2 | _ -> 4 in
  (* a left-deep join of the three tables in a random order with random
     equality conjuncts between adjacent key columns *)
  map2
    (fun shuffle extra_filter ->
      let tables = if shuffle then [ "big"; "mid"; "small" ] else [ "small"; "big"; "mid" ] in
      ignore key;
      match tables with
      | [ t1; t2; t3 ] ->
          let j1 =
            Algebra.Join
              (Expr.Cmp (Expr.Eq, Expr.Col 0, Expr.Col 2), Algebra.Rel t1, Algebra.Rel t2)
          in
          let j2 =
            Algebra.Join
              (Expr.Cmp (Expr.Eq, Expr.Col 2, Expr.Col 4), j1, Algebra.Rel t3)
          in
          if extra_filter then
            Algebra.Select
              (Expr.Cmp (Expr.Eq, Expr.Col 1, Expr.Const (Value.Str "x")), j2)
          else j2
      | _ -> assert false)
    bool bool

let arb =
  QCheck.make ~print:Algebra.to_string gen_join_query

let prop_preserves_semantics =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"optimizer preserves multisets" arb
       (fun q ->
         let d = db () in
         let plain = Exec.eval d q in
         let optimized =
           Exec.eval d (O.optimize ~table:(Database.find d) ~stats ~lookup q)
         in
         (* the optimizer restores column order, so plain bag equality *)
         Table.equal_bag plain
           (Table.of_array (Table.schema plain) (Table.rows optimized))))

let test_reorders_small_first () =
  (* big ⋈ mid ⋈ small should start from "small" *)
  let q =
    Algebra.Join
      ( Expr.Cmp (Expr.Eq, Expr.Col 2, Expr.Col 4),
        Algebra.Join
          (Expr.Cmp (Expr.Eq, Expr.Col 0, Expr.Col 2), Algebra.Rel "big", Algebra.Rel "mid"),
        Algebra.Rel "small" )
  in
  let optimized = O.optimize ~stats ~lookup q in
  let rec leftmost = function
    | Algebra.Join (_, l, _) -> leftmost l
    | Algebra.Select (_, q) | Algebra.Project (_, q) -> leftmost q
    | Algebra.Rel n -> Some n
    | _ -> None
  in
  Alcotest.(check (option string)) "smallest first" (Some "small")
    (leftmost optimized)

let test_single_table_untouched () =
  let q = Algebra.Select (Expr.Cmp (Expr.Eq, Expr.Col 0, Expr.Const (Value.Int 1)), Algebra.Rel "big") in
  let optimized = O.optimize ~stats ~lookup q in
  Alcotest.(check bool) "no structural change" true (q = optimized)

let test_estimate_monotone () =
  let d = db () in
  let e q = O.estimate ~table:(Database.find d) ~lookup stats q in
  let eq c v = Expr.Cmp (Expr.Eq, Expr.Col c, Expr.Const v) in
  (* big's key column holds 7 distinct values *)
  Alcotest.(check (float 1e-9)) "equality keeps 1/ndv" (60. /. 7.)
    (e (Algebra.Select (eq 0 (Value.Int 1), Algebra.Rel "big")));
  Alcotest.(check bool) "a conjunct shrinks further" true
    (e
       (Algebra.Select
          (Expr.And (eq 0 (Value.Int 1), eq 1 (Value.Str "x")), Algebra.Rel "big"))
    < e (Algebra.Select (eq 0 (Value.Int 1), Algebra.Rel "big")));
  Alcotest.(check bool) "union grows" true
    (e (Algebra.Union (Algebra.Rel "big", Algebra.Rel "mid")) > e (Algebra.Rel "big"));
  (* without column statistics a comparison with a constant keeps every row *)
  Alcotest.(check (float 1e-9)) "no statistics, no selectivity" 60.
    (O.estimate ~lookup stats (Algebra.Select (eq 0 (Value.Int 1), Algebra.Rel "big")))

(* an equi-join has |L|·|R| / max(ndv) rows: big and mid both hold 7
   distinct keys *)
let test_ndv_join () =
  let d = db () in
  let e q = O.estimate ~table:(Database.find d) ~lookup stats q in
  let key = Expr.Cmp (Expr.Eq, Expr.Col 0, Expr.Col 2) in
  Alcotest.(check (float 1e-9)) "big ⋈ mid" (60. *. 20. /. 7.)
    (e (Algebra.Join (key, Algebra.Rel "big", Algebra.Rel "mid")));
  (* the true size of this join *)
  Alcotest.(check int) "actual" 172
    (Table.cardinality
       (Exec.eval d (Algebra.Join (key, Algebra.Rel "big", Algebra.Rel "mid"))));
  Alcotest.(check (float 1e-9)) "cross product" (60. *. 20.)
    (e (Algebra.Join (Expr.Const (Value.Bool true), Algebra.Rel "big", Algebra.Rel "mid")))

(* a grouped aggregation has one row per group in a plain (or AS OF)
   plan; in a SEQ VT plan REWR splits it at the group's endpoints, so it
   keeps its input's size *)
let test_agg_bounds () =
  let d = db () in
  let agg =
    Algebra.Agg
      ( [ Algebra.proj (Expr.Col 0) "a" ],
        [ { Algebra.func = Tkr_relation.Agg.Count_star; agg_name = "n" } ],
        Algebra.Rel "big" )
  in
  let e mode = O.estimate ~table:(Database.find d) ~mode ~lookup stats agg in
  Alcotest.(check (float 1e-9)) "plain: ndv of the group" 7. (e O.Plain);
  Alcotest.(check (float 1e-9)) "snapshot: the input's size" 60.
    (e (O.Snapshot { domain = 100 }))

(* greedy ranking scores the join a candidate would make, not the
   candidate's own size: from [seed] the 30-row [wide] joins on a key
   (4·30/30 = 4 rows) where the 10-row [flat] joins on a constant column
   (4·10/4 = 10 rows) *)
let test_ranks_by_join_size () =
  let one n = Schema.make [ Schema.attr n Value.TInt ] in
  let ints n f = Table.make (one "k") (List.init n (fun i -> Tuple.make [ Value.Int (f i) ])) in
  let d = Database.create () in
  Database.add_table d "seed" (ints 4 Fun.id);
  Database.add_table d "flat" (ints 10 (fun _ -> 0));
  Database.add_table d "wide" (ints 30 Fun.id);
  let lookup _ = one "k" in
  let stats = { O.card = (fun n -> Table.cardinality (Database.find d n)) } in
  let q =
    Algebra.Join
      ( Expr.Cmp (Expr.Eq, Expr.Col 0, Expr.Col 2),
        Algebra.Join
          (Expr.Cmp (Expr.Eq, Expr.Col 0, Expr.Col 1), Algebra.Rel "seed", Algebra.Rel "flat"),
        Algebra.Rel "wide" )
  in
  let rec order = function
    | Algebra.Join (_, l, r) -> order l @ order r
    | Algebra.Select (_, q) | Algebra.Project (_, q) -> order q
    | Algebra.Rel n -> [ n ]
    | _ -> []
  in
  Alcotest.(check (list string)) "join order" [ "seed"; "wide"; "flat" ]
    (order (O.optimize ~table:(Database.find d) ~stats ~lookup q));
  Alcotest.(check bool) "same rows" true
    (Table.equal_bag (Exec.eval d q)
       (Exec.eval d (O.optimize ~table:(Database.find d) ~stats ~lookup q)))

(* two-way joins and single-table queries read no statistics: every
   read shape of a DML-heavy session re-prepares after each write, and
   a statistics slot would be rebuilt on each new table value *)
let test_no_stats_two_way () =
  let d = W.generate { (W.scaled 40) with tmax = 800 } in
  let m = M.create ~db:d () in
  let built () =
    List.filter (fun n -> Table.has_stats (Database.find d n)) (Database.names d)
  in
  List.iter
    (fun sql ->
      ignore (M.query m sql);
      Alcotest.(check (list string)) sql [] (built ()))
    [
      "SEQ VT AS OF 300 (SELECT d.dept_no, s.emp_no, s.salary FROM dept_emp d, \
       salaries s WHERE d.emp_no = s.emp_no)";
      "SEQ VT AS OF 300 (SELECT m.dept_no FROM dept_manager m, salaries s \
       WHERE m.emp_no = s.emp_no AND s.salary > 70000)";
      "SEQ VT (SELECT t.title, avg(s.salary) AS pay FROM salaries s, titles t \
       WHERE s.emp_no = t.emp_no GROUP BY t.title)";
      "SEQ VT AS OF 300 (SELECT title, count(*) AS n FROM titles GROUP BY title)";
      Q.lookup "join-3" Q.employee;
      Q.lookup "agg-1" Q.employee;
    ];
  (* a four-way join ranks its candidates, so it does read them *)
  ignore (M.query m (Q.lookup "agg-join" Q.employee));
  Alcotest.(check bool) "agg-join reads statistics" true (built () <> [])

(* EXPLAIN lists each join with its estimate; under ANALYZE every
   executed join line carries it just before its actual rows_out *)
let test_explain_estimates () =
  let d = W.generate { (W.scaled 40) with tmax = 800 } in
  let m = M.create ~db:d () in
  let sql = Q.lookup "join-4" Q.employee in
  (* the position of [sub] in [l], or -1 *)
  let index_of sub l =
    let n = String.length l and k = String.length sub in
    let rec go i = if i + k > n then -1 else if String.sub l i k = sub then i else go (i + 1) in
    go 0
  in
  let lines text = List.map String.trim (String.split_on_char '\n' text) in
  let rec listed = function
    | "joins (pre-order, estimated rows):" :: top :: next :: _ -> [ top; next ]
    | _ :: rest -> listed rest
    | [] -> []
  in
  (match listed (lines (M.explain m sql)) with
  | [ top; next ] ->
      Alcotest.(check int) "the top join names all three tables" 0
        (index_of "(dept_manager ⋈ employees) ⋈ salaries  est_rows=" top);
      Alcotest.(check int) "then its left input" 0
        (index_of "dept_manager ⋈ employees  est_rows=" next)
  | _ -> Alcotest.fail "no join list");
  let joins = List.filter (fun l -> index_of "join " l = 0) (lines (M.explain_analyze m sql)) in
  Alcotest.(check int) "two executed joins" 2 (List.length joins);
  List.iter
    (fun l ->
      let e = index_of "  est_rows=" l and r = index_of "  rows_out=" l in
      if not (e >= 0 && r > e) then Alcotest.failf "est_rows not beside rows_out: %s" l)
    joins

(* agg-join at the benchmark's scale: the largest intermediate stays
   within 2x of the final join.  Joining the per-department maxima on
   dept_no alone first would build ~50x.  Row counts come from an
   executed trace and are deterministic. *)
let test_agg_join_intermediates () =
  let d = W.generate { (W.scaled 1000) with tmax = 4000 } in
  let m = M.create ~db:d () in
  let obs = Tkr_obs.Trace.create () in
  ignore (M.run_prepared ~obs m (M.prepare m (Q.lookup "agg-join" Q.employee)));
  let rows = ref [] in
  List.iter
    (Tkr_obs.Trace.iter (fun sp ->
         match Tkr_obs.Trace.(name sp, find_attr sp "rows_out") with
         | "join", Some (Tkr_obs.Trace.Int n) -> rows := n :: !rows
         | _ -> ()))
    (Tkr_obs.Trace.roots obs);
  match List.rev !rows with
  | [] -> Alcotest.fail "no join executed"
  | final :: _ as all ->
      let largest = List.fold_left max 0 all in
      if largest > 2 * final then
        Alcotest.failf "largest join %d rows > 2x final join %d rows" largest final

(* full pipeline: workload queries give identical results with and
   without the optimizer (the unoptimized side on the row oracle) *)
let test_workload_equivalence () =
  let d = W.generate { (W.scaled 80) with tmax = 1200 } in
  let m_on = M.create ~optimize:true ~db:d () in
  let m_off = M.create ~engine:M.Row ~optimize:false ~db:d () in
  List.iter
    (fun name ->
      let sql = Q.lookup name Q.employee in
      Alcotest.check table_bag name (M.query m_off sql) (M.query m_on sql))
    [ "join-1"; "join-3"; "join-4"; "agg-1"; "agg-join"; "diff-2" ]

let suite =
  ( "optimizer",
    [
      prop_preserves_semantics;
      Alcotest.test_case "reorders smallest first" `Quick test_reorders_small_first;
      Alcotest.test_case "single table untouched" `Quick test_single_table_untouched;
      Alcotest.test_case "estimates are monotone" `Quick test_estimate_monotone;
      Alcotest.test_case "ndv join estimate" `Quick test_ndv_join;
      Alcotest.test_case "snapshot vs plain aggregation bound" `Quick test_agg_bounds;
      Alcotest.test_case "ranks by join size" `Quick test_ranks_by_join_size;
      Alcotest.test_case "two-way joins read no statistics" `Quick test_no_stats_two_way;
      Alcotest.test_case "EXPLAIN shows join estimates" `Quick test_explain_estimates;
      Alcotest.test_case "agg-join intermediates stay small" `Slow
        test_agg_join_intermediates;
      Alcotest.test_case "workload equivalence on/off" `Slow test_workload_equivalence;
    ] )

(* The abstract interpreter (Tkr_check.Absint): interval-lattice unit
   tests, inferred-fact checks, TKR4xx emission rules, EXPLAIN bounds
   rendering, and the soundness bar of analysis-driven pruning — pruned
   plans are byte-identical (same rows, same order) to unpruned ones on
   random plans (both engines) and on the committed workloads. *)

module M = Tkr_middleware.Middleware
module D = Tkr_check.Diagnostic
module Absint = Tkr_check.Absint
module Domain = Tkr_check.Domain
module Check = Tkr_check.Check
module Database = Tkr_engine.Database
module Table = Tkr_engine.Table
module Exec = Tkr_engine.Exec
module Vexec = Tkr_vec.Vexec
module Schema = Tkr_relation.Schema
module Value = Tkr_relation.Value
module Tuple = Tkr_relation.Tuple
module Expr = Tkr_relation.Expr
module Algebra = Tkr_relation.Algebra
module Agg = Tkr_relation.Agg
module W = Tkr_workload.Employees
module Q = Tkr_workload.Queries

let codes ds = List.map (fun (d : D.t) -> d.D.code) ds

(* ---- the interval lattice ---- *)

let test_itv () =
  let open Domain.Itv in
  Alcotest.(check bool) "bot is bot" true (is_bot bot);
  Alcotest.(check bool) "top not bot" false (is_bot top);
  Alcotest.(check bool) "meet disjoint is bot" true
    (is_bot (meet (at_most 3) (at_least 5)));
  Alcotest.(check bool) "meet overlap not bot" false
    (is_bot (meet (at_most 5) (at_least 3)));
  Alcotest.(check bool) "mem in bounds" true (mem 4 (of_bounds 0 9));
  Alcotest.(check bool) "mem out of bounds" false (mem 10 (of_bounds 0 9));
  Alcotest.(check bool) "subset" true (subset (of_bounds 2 3) (at_least 0));
  Alcotest.(check bool) "not subset" false (subset (at_least 0) (of_bounds 2 3));
  Alcotest.(check bool) "bot subset of anything" true
    (subset bot (singleton 7));
  (* join is the convex hull, with bot as identity *)
  Alcotest.(check bool) "join hull" true
    (join (singleton 1) (singleton 5) = of_bounds 1 5);
  Alcotest.(check bool) "join bot id" true (join bot (singleton 2) = singleton 2);
  (* an impossible column needs bottom AND non-nullness: an all-NULL
     column has a bottom interval but its rows still exist *)
  Alcotest.(check bool) "bot+nonnull impossible" true
    (Domain.col_impossible { Domain.itv = bot; nonnull = true });
  Alcotest.(check bool) "bot+nullable possible" false
    (Domain.col_impossible { Domain.itv = bot; nonnull = false })

(* ---- facts and diagnostics on hand-built plans ---- *)

let enc =
  Schema.make
    [ Schema.attr "x" Value.TInt; Schema.attr "__b" Value.TInt;
      Schema.attr "__e" Value.TInt ]

let enc_lookup = function "enc" -> Some enc | _ -> None

let enc_env =
  Absint.env ~temporal:true
    ~is_period:(fun n -> n = "enc")
    ~time_bounds:(0, 24) enc_lookup

let vi k = Expr.Const (Value.Int k)

let test_facts () =
  (* base relation: period columns seeded from the time bounds *)
  let fact, ds = Absint.analyze enc_env (Algebra.Rel "enc") in
  Alcotest.(check (list string)) "no diags" [] (codes ds);
  Alcotest.(check bool) "period" true fact.Absint.period;
  Alcotest.(check bool) "b seeded" true
    (fact.Absint.cols.(1).Domain.itv = Domain.Itv.of_bounds 0 24);
  (* a selection narrows the window *)
  let sel =
    Algebra.Select (Expr.Cmp (Expr.Ge, Expr.Col 1, vi 5), Algebra.Rel "enc")
  in
  let fact, _ = Absint.analyze enc_env sel in
  Alcotest.(check bool) "b narrowed" true
    (fact.Absint.cols.(1).Domain.itv = Domain.Itv.of_bounds 5 24);
  (* coalesce output is provably coalesced; a second coalesce warns *)
  let fact, ds =
    Absint.analyze enc_env (Algebra.Coalesce (Algebra.Coalesce (Rel "enc")))
  in
  Alcotest.(check bool) "coalesced" true fact.Absint.coalesced;
  Alcotest.(check (list string)) "TKR405" [ "TKR405" ] (codes ds);
  (* distinct over distinct is idempotent *)
  let _, ds =
    Absint.analyze enc_env (Algebra.Distinct (Algebra.Distinct (Rel "enc")))
  in
  Alcotest.(check (list string)) "TKR404" [ "TKR404" ] (codes ds)

let test_emission_rules () =
  let unsat =
    Expr.(And (Cmp (Gt, Col 0, vi 5), Cmp (Lt, Col 0, vi 3)))
  in
  (* TKR401 + TKR402 on an unsatisfiable selection *)
  let _, ds = Absint.analyze enc_env (Algebra.Select (unsat, Rel "enc")) in
  Alcotest.(check (list string)) "401+402" [ "TKR401"; "TKR402" ] (codes ds);
  (* ... but not when the child is already provably empty: one report *)
  let empty = Algebra.ConstRel (enc, []) in
  let _, ds = Absint.analyze enc_env (Algebra.Select (unsat, empty)) in
  Alcotest.(check (list string)) "no 401 on empty child" [ "TKR402" ] (codes ds);
  (* ungrouped aggregation yields its neutral row on empty input: the
     plan is NOT provably empty *)
  let count = { Algebra.func = Agg.Count_star; agg_name = "c" } in
  let fact, ds = Absint.analyze enc_env (Algebra.Agg ([], [ count ], empty)) in
  Alcotest.(check bool) "agg not empty" false fact.Absint.empty;
  Alcotest.(check (list string)) "no 402 through agg" [] (codes ds);
  (* temporal mode suppresses subsumption warnings (rewriter-generated
     predicates), non-temporal mode reports them *)
  let subsumed = Algebra.Select (Expr.Cmp (Expr.Ge, Expr.Col 1, vi 0), Rel "enc") in
  let _, ds = Absint.analyze enc_env subsumed in
  Alcotest.(check (list string)) "403 suppressed" [] (codes ds);
  let plain_env =
    Absint.env ~is_period:(fun n -> n = "enc") ~time_bounds:(0, 24) enc_lookup
  in
  let _, ds = Absint.analyze plain_env subsumed in
  Alcotest.(check (list string)) "403 reported" [ "TKR403" ] (codes ds);
  (* degenerate periods: bounds force Abegin >= Aend *)
  let _, ds =
    Absint.analyze enc_env
      (Algebra.Select (Expr.Cmp (Expr.Le, Expr.Col 2, vi 0), Rel "enc"))
  in
  Alcotest.(check (list string)) "407" [ "TKR407" ] (codes ds);
  (* NULL-aware soundness: a comparison over an all-NULL column infers a
     bottom interval, but the column is nullable so nothing is refuted *)
  let nullrel =
    Algebra.ConstRel (enc, [ Tuple.make [ Value.Null; Value.Int 0; Value.Int 1 ] ])
  in
  let fact, ds =
    Absint.analyze enc_env
      (Algebra.Select (Expr.Is_null (Expr.Col 0), nullrel))
  in
  Alcotest.(check bool) "not empty" false fact.Absint.empty;
  Alcotest.(check (list string)) "no diags" [] (codes ds)

(* ---- pruning: shape and byte identity on hand-built plans ---- *)

let small_db () =
  let db = Database.create () in
  let t =
    Table.make enc
      (List.map
         (fun (x, b, e) -> Tuple.make [ x; Value.Int b; Value.Int e ])
         [ (Value.Int 1, 0, 10); (Value.Int 2, 5, 15); (Value.Int 1, 0, 10);
           (Value.Null, 2, 8) ])
  in
  Database.add_table db "enc" t;
  db

let same_bytes (a : Table.t) (b : Table.t) =
  Schema.equal (Table.schema a) (Table.schema b)
  && Array.length (Table.rows a) = Array.length (Table.rows b)
  && Array.for_all2
       (fun x y -> Tuple.compare x y = 0)
       (Table.rows a) (Table.rows b)

let check_prune_identity ?(env = enc_env) db q =
  let pruned = Absint.prune env q in
  let r1 = Exec.eval db q and r2 = Exec.eval db pruned in
  if not (same_bytes r1 r2) then
    Alcotest.failf "pruned plan differs (Exec):@.%a@.vs@.%a" Algebra.pp q
      Algebra.pp pruned;
  let v1 = Vexec.eval db q and v2 = Vexec.eval db pruned in
  if not (same_bytes v1 v2) then
    Alcotest.failf "pruned plan differs (Vexec):@.%a@.vs@.%a" Algebra.pp q
      Algebra.pp pruned;
  pruned

let test_prune_shapes () =
  let db = small_db () in
  let unsat =
    Expr.(And (Cmp (Gt, Col 0, vi 5), Cmp (Lt, Col 0, vi 3)))
  in
  (* unsat selection collapses to an empty constant *)
  (match check_prune_identity db (Algebra.Select (unsat, Rel "enc")) with
  | Algebra.ConstRel (_, []) -> ()
  | p -> Alcotest.failf "expected empty const, got %a" Algebra.pp p);
  (* idempotent distinct is dropped *)
  (match check_prune_identity db (Algebra.Distinct (Algebra.Distinct (Rel "enc"))) with
  | Algebra.Distinct (Algebra.Rel "enc") -> ()
  | p -> Alcotest.failf "expected single distinct, got %a" Algebra.pp p);
  (* idempotent coalesce is dropped *)
  (match check_prune_identity db (Algebra.Coalesce (Algebra.Coalesce (Rel "enc"))) with
  | Algebra.Coalesce (Algebra.Rel "enc") -> ()
  | p -> Alcotest.failf "expected single coalesce, got %a" Algebra.pp p);
  (* one-sided unions shed the empty operand; Union(empty, r) keeps the
     left side's output names with a renaming projection when needed *)
  let empty = Algebra.ConstRel (enc, []) in
  (match check_prune_identity db (Algebra.Union (Rel "enc", empty)) with
  | Algebra.Rel "enc" -> ()
  | p -> Alcotest.failf "expected bare rel, got %a" Algebra.pp p);
  let renamed =
    Schema.make
      [ Schema.attr "y" Value.TInt; Schema.attr "b2" Value.TInt;
        Schema.attr "e2" Value.TInt ]
  in
  (match
     check_prune_identity db (Algebra.Union (Algebra.ConstRel (renamed, []), Rel "enc"))
   with
  | Algebra.Project (_, Algebra.Rel "enc") -> ()
  | p -> Alcotest.failf "expected renaming project, got %a" Algebra.pp p);
  (* difference with a provably-empty subtrahend is the left side *)
  (match check_prune_identity db (Algebra.Diff (Rel "enc", empty)) with
  | Algebra.Rel "enc" -> ()
  | p -> Alcotest.failf "expected bare rel, got %a" Algebra.pp p);
  (* the neutral row survives: Agg([]) over a pruned-empty child *)
  let count = { Algebra.func = Agg.Count_star; agg_name = "c" } in
  ignore
    (check_prune_identity db
       (Algebra.Agg ([], [ count ], Algebra.Select (unsat, Rel "enc"))))

(* ---- random-plan differential: pruned == unpruned, byte for byte ---- *)

(* all generated plans keep the [int; int; int] encoded shape so unions
   and differences stay compatible; constants include NULLs and empties
   to exercise the nullable-column and empty-operand rules *)
let gen_plan : Algebra.t QCheck.Gen.t =
  let open QCheck.Gen in
  let gen_const =
    let* rows = int_range 0 3 in
    let* tuples =
      list_repeat rows
        (let* x = oneof [ map (fun k -> Value.Int k) (int_range (-1) 7); return Value.Null ] in
         let* b = int_range 0 20 in
         let+ len = int_range 0 6 in
         Tuple.make [ x; Value.Int b; Value.Int (b + len) ])
    in
    return (Algebra.ConstRel (enc, tuples))
  in
  let gen_leaf = oneof [ return (Algebra.Rel "enc"); gen_const ] in
  let gen_cmp =
    let* op =
      oneofl [ Expr.Eq; Expr.Ne; Expr.Lt; Expr.Le; Expr.Gt; Expr.Ge ]
    in
    let* col = int_range 0 2 in
    let+ k = int_range (-1) 25 in
    Expr.Cmp (op, Expr.Col col, vi k)
  in
  let gen_pred =
    oneof
      [
        gen_cmp;
        map2 (fun a b -> Expr.And (a, b)) gen_cmp gen_cmp;
        map (fun c -> Expr.Is_null (Expr.Col c)) (int_range 0 2);
        map (fun c -> Expr.Not (Expr.Is_null (Expr.Col c))) (int_range 0 2);
        map2
          (fun c ks -> Expr.In_list (Expr.Col c, List.map (fun k -> Value.Int k) ks))
          (int_range 0 2)
          (list_size (int_range 1 3) (int_range 0 8));
      ]
  in
  let identity_projs =
    [ Algebra.proj (Expr.Col 0) "x"; Algebra.proj (Expr.Col 1) "__b";
      Algebra.proj (Expr.Col 2) "__e" ]
  in
  fix
    (fun self depth ->
      if depth = 0 then gen_leaf
      else
        frequency
          [
            (2, gen_leaf);
            (4, map2 (fun p q -> Algebra.Select (p, q)) gen_pred (self (depth - 1)));
            (2, map (fun q -> Algebra.Distinct q) (self (depth - 1)));
            (1, map (fun q -> Algebra.Project (identity_projs, q)) (self (depth - 1)));
            (2, map2 (fun l r -> Algebra.Union (l, r)) (self (depth - 1)) (self (depth - 1)));
            (2, map2 (fun l r -> Algebra.Diff (l, r)) (self (depth - 1)) (self (depth - 1)));
          ])
    3

let arb_plan =
  QCheck.make gen_plan ~print:(fun q -> Format.asprintf "%a" Algebra.pp q)

let prop_prune_byte_identity =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"pruning is byte-identical (both engines)"
       arb_plan (fun q ->
         let db = small_db () in
         (* the analysis must also never raise while diagnosing *)
         ignore (Absint.diagnose enc_env q);
         ignore (check_prune_identity db q);
         true))

(* random join queries from the optimizer suite, under the same bar *)
let prop_prune_joins =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"pruning is byte-identical on join queries"
       Test_optimizer.arb (fun q ->
         let db = Test_optimizer.db () in
         let lookup n =
           match Test_optimizer.lookup n with
           | s -> Some s
           | exception Schema.Unknown _ -> None
         in
         let env = Absint.env lookup in
         ignore (check_prune_identity ~env db q);
         true))

(* ---- workloads end-to-end: prune on/off through the middleware ---- *)

(* the shipped (vec) engine with pruning against the row oracle without *)
let test_workload_identity () =
  let db = W.generate { (W.scaled 60) with W.tmax = 1200 } in
  let m_on = M.create ~prune:true ~db ()
  and m_off = M.create ~engine:M.Row ~prune:false ~db () in
  let extra =
    [
      ("as-of", "SEQ VT AS OF 600 (SELECT emp_no, salary FROM salaries)");
      ("as-of-late", "SEQ VT AS OF 5000 (SELECT emp_no FROM employees)");
      ("set", "SEQ VT SET (SELECT dept_no FROM dept_emp)");
      ("plain-dead",
       "SELECT emp_no FROM employees WHERE emp_no > 10 AND emp_no < 5");
      ("distinct-group",
       "SELECT DISTINCT dept_no, count(*) AS c FROM dept_emp GROUP BY dept_no");
    ]
  in
  List.iter
    (fun (name, sql) ->
      let a = M.query m_on sql and b = M.query m_off sql in
      if not (same_bytes a b) then
        Alcotest.failf "%s: prune on/off outputs differ" name)
    (Q.employee @ extra)

(* ---- EXPLAIN surfaces the inferred bounds ---- *)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_explain_bounds () =
  let m = M.create () in
  Database.set_time_bounds (M.database m) ~tmin:0 ~tmax:24;
  ignore
    (M.execute_script m
       {|
       CREATE TABLE w (x int, b int, e int) PERIOD (b, e);
       INSERT INTO w VALUES (1, 3, 10), (2, 8, 16);
     |});
  let text = M.explain m "SEQ VT (SELECT x FROM w)" in
  Alcotest.(check bool) "has analysis section" true (contains text "analysis:");
  Alcotest.(check bool) "has time window" true (contains text "time=[");
  Alcotest.(check bool) "has coalesced flag" true (contains text "coalesced");
  (* a provably-empty query renders as empty and warns in CHECK *)
  let ds = M.check m "SEQ VT (SELECT x FROM w WHERE x > 5 AND x < 3)" in
  Alcotest.(check bool) "401" true (List.mem "TKR401" (codes ds));
  Alcotest.(check bool) "402" true (List.mem "TKR402" (codes ds));
  (* positions: plan-level warnings carry the statement origin *)
  List.iter
    (fun (d : D.t) ->
      if d.D.pos = None then Alcotest.failf "%s has no position" d.D.code)
    ds

(* ---- Diagnostic.sort orders by position within equal codes ---- *)

let test_sort_positions () =
  let d line col = D.warning ~pos:{ D.line; col } "TKR401" "at %d:%d" line col in
  let nopos = D.warning "TKR401" "unpositioned" in
  let sorted = D.sort [ nopos; d 3 1; d 1 2; d 1 9 ] in
  Alcotest.(check (list (option (pair int int))))
    "source order, unpositioned last"
    [ Some (1, 2); Some (1, 9); Some (3, 1); None ]
    (List.map
       (fun (x : D.t) -> Option.map (fun (p : D.pos) -> (p.D.line, p.D.col)) x.D.pos)
       sorted)

let suite =
  ( "abstract interpretation",
    [
      Alcotest.test_case "interval lattice" `Quick test_itv;
      Alcotest.test_case "inferred facts" `Quick test_facts;
      Alcotest.test_case "TKR4xx emission rules" `Quick test_emission_rules;
      Alcotest.test_case "prune shapes + identity" `Quick test_prune_shapes;
      prop_prune_byte_identity;
      prop_prune_joins;
      Alcotest.test_case "workload prune on/off identity" `Quick
        test_workload_identity;
      Alcotest.test_case "EXPLAIN bounds + positions" `Quick test_explain_bounds;
      Alcotest.test_case "sort by position" `Quick test_sort_positions;
    ] )

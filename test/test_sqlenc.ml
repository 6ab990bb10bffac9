(* The implementation level: PERIODENC round trips, the engine's sweep
   implementations of coalesce/split agree with the spec-level transcriptions
   of Defs. 8.2/8.3, and — the heart of Theorem 8.1 — rewritten queries
   executed by the engine produce exactly the logical model's results, with
   and without the Section 9 optimizations. *)

open Fixtures
module Table = Tkr_engine.Table
module Database = Tkr_engine.Database
module Exec = Tkr_engine.Exec
module Ops = Tkr_engine.Ops
module Reference = Tkr_sqlenc.Reference
module Rewriter = Tkr_sqlenc.Rewriter
module PE = Tkr_sqlenc.Period_enc.Make (D24)
module Algebra = Tkr_relation.Algebra
module Schema = Tkr_relation.Schema
module Value = Tkr_relation.Value
module Expr = Tkr_relation.Expr
module Tuple = Tkr_relation.Tuple

let table_bag = Alcotest.testable Table.pp Table.equal_bag
let period_rel = Alcotest.testable NP.R.pp NP.R.equal

(* Engine database holding the running example as period tables. *)
let make_db () =
  let db = Database.create ~tmin:0 ~tmax:24 () in
  Database.add_period_table db "works" (PE.to_table works_period);
  Database.add_period_table db "assign" (PE.to_table assign_period);
  db

let lookup = function
  | "works" -> works_schema
  | "assign" -> assign_schema
  | n -> raise (Schema.Unknown n)

let run_rewritten options q =
  let db = make_db () in
  let rewritten = Rewriter.rewrite ~options ~tmin:0 ~tmax:24 ~lookup q in
  PE.of_table (Exec.eval db rewritten)

let queries =
  [
    ("qonduty", qonduty);
    ("qskillreq", qskillreq);
    ("qmachines", qmachines);
    ( "grouped-count",
      Algebra.Agg
        ( [ Algebra.proj (Expr.Col 1) "skill" ],
          [ { func = Tkr_relation.Agg.Count_star; agg_name = "cnt" } ],
          Algebra.Rel "works" ) );
    ( "avg-ungrouped",
      Algebra.Agg
        ( [],
          [
            {
              func = Tkr_relation.Agg.Avg (Expr.Const (Value.Int 10));
              agg_name = "a";
            };
          ],
          Algebra.Rel "works" ) );
    ( "distinct-skill",
      Algebra.Distinct
        (Algebra.Project ([ Algebra.proj (Expr.Col 1) "skill" ], Algebra.Rel "works"))
    );
    ( "union",
      Algebra.Union
        ( Algebra.Project ([ Algebra.proj (Expr.Col 1) "s" ], Algebra.Rel "works"),
          Algebra.Project ([ Algebra.proj (Expr.Col 1) "s" ], Algebra.Rel "assign") ) );
    ( "select-scan",
      Algebra.Select
        (Expr.Cmp (Expr.Eq, Expr.Col 1, Expr.Const (str "SP")), Algebra.Rel "works") );
    ( "join-then-diff",
      Algebra.Diff
        ( Algebra.Project ([ Algebra.proj (Expr.Col 1) "s" ], Algebra.Rel "assign"),
          Algebra.Project
            ( [ Algebra.proj (Expr.Col 1) "s" ],
              Algebra.Join
                ( Expr.Cmp (Expr.Eq, Expr.Col 1, Expr.Col 3),
                  Algebra.Rel "assign",
                  Algebra.Rel "works" ) ) ) );
  ]

let test_theorem_81 options () =
  List.iter
    (fun (name, q) ->
      let logical = NP.eval period_db q in
      let via_engine = run_rewritten options q in
      Alcotest.check period_rel name logical via_engine)
    queries

(* PERIODENC round trip *)
let test_periodenc_roundtrip () =
  List.iter
    (fun r ->
      Alcotest.check period_rel "roundtrip" r (PE.of_table (PE.to_table r)))
    [ works_period; assign_period; expected_onduty; expected_skillreq ]

(* random encoded tables for differential operator tests *)
let table_gen =
  let open QCheck.Gen in
  let row =
    map3
      (fun name b d ->
        Tuple.make
          [ Value.Str name; Value.Int b; Value.Int (min 24 (b + d)) ])
      (oneofl [ "a"; "b"; "c" ])
      (int_range 0 22) (int_range 1 8)
  in
  map
    (fun rows ->
      Table.make
        (Schema.make
           [
             Schema.attr "x" Value.TStr;
             Schema.attr "__b" Value.TInt;
             Schema.attr "__e" Value.TInt;
           ])
        rows)
    (list_size (int_range 0 15) row)

let table_arb = QCheck.make ~print:(fun t -> Table.to_text t) table_gen

let prop_coalesce_matches_spec =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"engine coalesce = Def 8.2 spec"
       table_arb (fun t ->
         Table.equal_bag (Ops.coalesce t) (Reference.coalesce_spec t)))

let prop_coalesce_idempotent =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"engine coalesce idempotent" table_arb
       (fun t ->
         let c = Ops.coalesce t in
         Table.equal_bag c (Ops.coalesce c)))

let prop_coalesce_preserves_snapshots =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"engine coalesce snapshot-preserving"
       table_arb (fun t ->
         NP.R.equal (PE.of_table t) (PE.of_table (Ops.coalesce t))))

let prop_split_matches_spec =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"engine split = Def 8.3 spec"
       (QCheck.pair table_arb table_arb) (fun (l, r) ->
         (* group on the data column *)
         Table.equal_bag (Ops.split [ 0 ] l r) (Reference.split_spec [ 0 ] l r)))

let prop_split_empty_group =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"engine split with empty grouping"
       (QCheck.pair table_arb table_arb) (fun (l, r) ->
         Table.equal_bag (Ops.split [] l r) (Reference.split_spec [] l r)))

let prop_split_preserves_snapshots =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"split is snapshot-preserving"
       (QCheck.pair table_arb table_arb) (fun (l, r) ->
         NP.R.equal (PE.of_table l) (PE.of_table (Ops.split [ 0 ] l r))))

(* direct operator-level check: the fused split+aggregate equals the
   logical Def. 7.1 aggregation, on tables with an integer data column so
   SUM/AVG/MIN/MAX are all exercised *)
let int_table_gen =
  let open QCheck.Gen in
  let row =
    map3
      (fun k b d ->
        Tuple.make
          [ Value.Int k; Value.Int b; Value.Int (min 24 (b + d)) ])
      (int_range 0 4) (int_range 0 22) (int_range 1 8)
  in
  map
    (fun rows ->
      Table.make
        (Schema.make
           [
             Schema.attr "k" Value.TInt;
             Schema.attr "__b" Value.TInt;
             Schema.attr "__e" Value.TInt;
           ])
        rows)
    (list_size (int_range 0 15) row)

let agg_specs : Algebra.agg_spec list =
  [
    { func = Tkr_relation.Agg.Count (Expr.Col 0); agg_name = "c" };
    { func = Tkr_relation.Agg.Sum (Expr.Col 0); agg_name = "s" };
    { func = Tkr_relation.Agg.Min (Expr.Col 0); agg_name = "mn" };
    { func = Tkr_relation.Agg.Avg (Expr.Col 0); agg_name = "av" };
  ]

let prop_split_agg_vs_logical grouped =
  let name =
    Printf.sprintf "fused split+agg = Def 7.1 aggregation (%s)"
      (if grouped then "grouped" else "gap-covering")
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name
       (QCheck.make ~print:Table.to_text int_table_gen)
       (fun t ->
         let fused =
           Ops.split_agg
             ~group:(if grouped then [ 0 ] else [])
             ~aggs:agg_specs
             ~gap:(if grouped then None else Some (0, 24))
             t
         in
         let logical =
           let db = function
             | "t" -> PE.of_table t
             | n -> invalid_arg n
           in
           NP.eval db
             (Algebra.Agg
                ( (if grouped then [ Algebra.proj (Expr.Col 0) "g" ] else []),
                  agg_specs,
                  Algebra.Rel "t" ))
         in
         NP.R.equal (PE.of_table fused) logical))

let suite =
  ( "sqlenc (implementation level)",
    [
      Alcotest.test_case "PERIODENC round trip" `Quick test_periodenc_roundtrip;
      Alcotest.test_case "theorem 8.1 (optimized rewriting)" `Quick
        (test_theorem_81 Rewriter.optimized);
      Alcotest.test_case "theorem 8.1 (literal Fig. 4 rewriting)" `Quick
        (test_theorem_81 Rewriter.literal);
      Alcotest.test_case "theorem 8.1 (final coalesce, unfused agg)" `Quick
        (test_theorem_81
           { Rewriter.final_coalesce_only = true; fused_split_agg = false });
      Alcotest.test_case "theorem 8.1 (per-op coalesce, fused agg)" `Quick
        (test_theorem_81
           { Rewriter.final_coalesce_only = false; fused_split_agg = true });
      prop_coalesce_matches_spec;
      prop_coalesce_idempotent;
      prop_coalesce_preserves_snapshots;
      prop_split_matches_spec;
      prop_split_empty_group;
      prop_split_preserves_snapshots;
      prop_split_agg_vs_logical true;
      prop_split_agg_vs_logical false;
    ] )

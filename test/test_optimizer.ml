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
         let optimized = Exec.eval d (O.optimize ~stats ~lookup q) in
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
  let e q = O.estimate stats q in
  Alcotest.(check bool) "selection shrinks" true
    (e (Algebra.Select (Expr.Cmp (Expr.Eq, Expr.Col 0, Expr.Const (Value.Int 1)), Algebra.Rel "big"))
    < e (Algebra.Rel "big"));
  Alcotest.(check bool) "union grows" true
    (e (Algebra.Union (Algebra.Rel "big", Algebra.Rel "mid")) > e (Algebra.Rel "big"))

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
      Alcotest.test_case "workload equivalence on/off" `Slow test_workload_equivalence;
    ] )

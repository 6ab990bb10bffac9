(* Extensions beyond the paper's core: timeslice queries (SEQ VT AS OF),
   SQL:2011 FOR PORTION OF updates/deletes, and bitemporal relations via
   functor composition — the paper's future-work items. *)

open Fixtures
module M = Tkr_middleware.Middleware
module Table = Tkr_engine.Table
module Database = Tkr_engine.Database
module Schema = Tkr_relation.Schema
module Value = Tkr_relation.Value
module Tuple = Tkr_relation.Tuple
module Expr = Tkr_relation.Expr
module Algebra = Tkr_relation.Algebra

let table_bag = Alcotest.testable Table.pp Table.equal_bag

let fresh () =
  let m = M.create () in
  Database.set_time_bounds (M.database m) ~tmin:0 ~tmax:24;
  ignore
    (M.execute_script m
       {|
       CREATE TABLE works (name text, skill text, b int, e int) PERIOD (b, e);
       INSERT INTO works VALUES
         ('Ann', 'SP', 3, 10), ('Joe', 'NS', 8, 16),
         ('Sam', 'SP', 8, 16), ('Ann', 'SP', 18, 20);
     |});
  m

(* --- SEQ VT AS OF: timeslice queries --- *)

(* AS OF t (Q) is Q over the timeslices τ_t of the base tables; τ_t is a
   semiring homomorphism (Thm 6.3/7.2), so it must equal the rows of the
   full snapshot query SEQ VT (Q) alive at t, period columns dropped, as
   multisets — at every point, on every engine/index/prune setting *)

type prow = { x : int option; y : int option; pb : int; pe : int }

let arb_period_tables =
  let open QCheck.Gen in
  let v = frequency [ (1, return None); (4, map Option.some (int_range 0 3)) ] in
  let row =
    let* x = v and* y = v and* pb = int_range 0 10 in
    (* empty ([b = e]) and single-point periods are frequent *)
    let+ len = frequency [ (1, return 0); (1, return 1); (3, int_range 2 6) ] in
    { x; y; pb; pe = pb + len }
  in
  let rows =
    let* rs = list_size (int_range 0 8) row in
    (* exact duplicates *)
    let+ dups = int_range 0 2 in
    rs @ List.filteri (fun i _ -> i < dups) rs
  in
  let show rs =
    String.concat "; "
      (List.map
         (fun r ->
           let o = function None -> "NULL" | Some i -> string_of_int i in
           Printf.sprintf "(%s,%s,[%d,%d))" (o r.x) (o r.y) r.pb r.pe)
         rs)
  in
  QCheck.make
    ~print:(fun (r, s) -> Printf.sprintf "r: %s\ns: %s" (show r) (show s))
    (pair rows rows)

let as_of_queries =
  [
    "SELECT x, y FROM r WHERE y > 1";
    "SELECT x FROM r";
    "SELECT r.x, s.y FROM r, s WHERE r.x = s.x";
    "SELECT x FROM r UNION ALL SELECT y FROM s";
    "SELECT x FROM r EXCEPT ALL SELECT x FROM s";
    "SELECT DISTINCT x FROM r";
    "SELECT x, count(*) AS n, sum(y) AS sm, min(y) AS mn, avg(y) AS av \
     FROM r GROUP BY x";
    "SELECT count(*) AS n, sum(y) AS sm, min(y) AS mn, avg(y) AS av FROM r";
    "SELECT count(y) AS n FROM s WHERE x = 1";
  ]

let load_period_tables (r, s) =
  let db = Database.create () in
  let m = M.create ~db () in
  let load name rows =
    ignore
      (M.execute m
         (Printf.sprintf "CREATE TABLE %s (x int, y int, b int, e int) PERIOD (b, e)"
            name));
    if rows <> [] then
      let o = function None -> "NULL" | Some i -> string_of_int i in
      ignore
        (M.execute m
           (Printf.sprintf "INSERT INTO %s VALUES %s" name
              (String.concat ", "
                 (List.map
                    (fun p -> Printf.sprintf "(%s, %s, %d, %d)" (o p.x) (o p.y) p.pb p.pe)
                    rows))))
  in
  load "r" r;
  load "s" s;
  db

let row_list t = Array.to_list (Table.rows t)
let sorted_rows t = List.sort Tuple.compare (row_list t)

let rec has_temporal_op (q : Algebra.t) =
  match q with
  | Algebra.Coalesce _ | Split _ | Split_agg _ -> true
  | Rel _ | ConstRel _ -> false
  | Select (_, q) | Project (_, q) | Agg (_, _, q) | Distinct q -> has_temporal_op q
  | Join (_, l, r) | Union (l, r) | Diff (l, r) -> has_temporal_op l || has_temporal_op r

(* the rows of a [SEQ VT] result alive at [t], period columns dropped *)
let alive_at full t =
  let n = Schema.arity (Table.schema full) in
  List.filter_map
    (fun row ->
      match (Tuple.get row (n - 2), Tuple.get row (n - 1)) with
      | Value.Int b, Value.Int e when b <= t && t < e ->
          Some (Tuple.project (List.init (n - 2) Fun.id) row)
      | _ -> None)
    (row_list full)

let prop_as_of_matches_snapshot =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:20 ~name:"AS OF matches full snapshot query"
       arb_period_tables (fun tables ->
         let db = load_period_tables tables in
         let tmin, tmax = Database.time_bounds db in
         List.iter
           (fun (index, prune) ->
             let row = M.create ~engine:M.Row ~index ~prune ~db ()
             and vec = M.create ~engine:M.Vec ~index ~prune ~db () in
             List.iter
               (fun q ->
                 let full m = M.query m (Printf.sprintf "SEQ VT (%s)" q) in
                 let full_row = full row and full_vec = full vec in
                 for t = tmin - 2 to tmax + 1 do
                   let sql = Printf.sprintf "SEQ VT AS OF %d (%s)" t q in
                   let sliced m full =
                     let p = M.prepare m sql in
                     if has_temporal_op p.M.plan then
                       QCheck.Test.fail_reportf "%s: temporal operator in plan" sql;
                     let r = M.run_prepared m p in
                     if
                       List.compare Tuple.compare (sorted_rows r)
                         (List.sort Tuple.compare (alive_at full t))
                       <> 0
                     then
                       QCheck.Test.fail_reportf "%s (index=%b prune=%b):@.%s" sql
                         index prune (Table.to_text r);
                     r
                   in
                   if
                     List.compare Tuple.compare
                       (row_list (sliced row full_row))
                       (row_list (sliced vec full_vec))
                     <> 0
                   then QCheck.Test.fail_reportf "%s: row and vec differ" sql
                 done)
               as_of_queries)
           [ (true, true); (true, false); (false, true); (false, false) ];
         true))

let test_as_of_schema () =
  let m = fresh () in
  let t = M.query m "SEQ VT AS OF 9 (SELECT name FROM works WHERE skill = 'SP')" in
  Alcotest.(check (list string)) "no period columns" [ "name" ]
    (Schema.names (Table.schema t));
  Alcotest.(check int) "Ann and Sam at 9" 2 (Table.cardinality t)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_as_of_domain_edges () =
  let m = fresh () in
  let count_at t =
    let sql = Printf.sprintf "SEQ VT AS OF %d (SELECT count(*) AS c FROM works)" t in
    (M.query m sql, List.map (fun (d : M.Diagnostic.t) -> d.code) (M.check m sql))
  in
  (* outside [tmin, tmax) = [0, 24): no row at all, not one 0 row *)
  List.iter
    (fun t ->
      let r, codes = count_at t in
      Alcotest.(check int) (Printf.sprintf "no rows at %d" t) 0 (Table.cardinality r);
      Alcotest.(check bool) (Printf.sprintf "TKR408 at %d" t) true
        (List.mem "TKR408" codes))
    [ -1; 24; 99 ];
  (* in the domain with nothing alive: plain aggregation's one 0 row *)
  let r, codes = count_at 17 in
  Alcotest.(check (list string)) "one 0 row at 17" [ "0" ]
    (List.map (fun row -> Value.to_string (Tuple.get row 0)) (row_list r));
  Alcotest.(check bool) "no TKR408 at 17" false (List.mem "TKR408" codes);
  let ex =
    M.explain m "SEQ VT AS OF 9 (SELECT skill, count(*) AS c FROM works GROUP BY skill)"
  in
  Alcotest.(check bool) "index access" true (contains ex "access: works=index");
  List.iter
    (fun op ->
      Alcotest.(check bool) ("no " ^ op ^ " operator") false (contains ex op))
    [ "C("; "N["; "Nγ" ]

(* temporal semijoin and antijoin written in SQL: a's periods restricted
   to (resp. outside) the times some matching b row exists *)
let test_semijoin_antijoin () =
  let m = M.create () in
  ignore
    (M.execute_script m
       {|
       CREATE TABLE a (id int, b int, e int) PERIOD (b, e);
       CREATE TABLE b (id int, b int, e int) PERIOD (b, e);
       INSERT INTO a VALUES (1, 1, 20);
       INSERT INTO b VALUES (1, 5, 10), (1, 15, 30);
     |});
  let semi = "SELECT DISTINCT a.id FROM a, b WHERE a.id = b.id" in
  let anti = "SELECT id FROM a EXCEPT ALL " ^ semi in
  let texts t = List.map (fun row -> Tuple.to_string row) (sorted_rows t) in
  Alcotest.(check (list string)) "semijoin periods"
    [ "(1, 5, 10)"; "(1, 15, 20)" ]
    (texts (M.query m (Printf.sprintf "SEQ VT (%s)" semi)));
  Alcotest.(check (list string)) "antijoin periods"
    [ "(1, 1, 5)"; "(1, 10, 15)" ]
    (texts (M.query m (Printf.sprintf "SEQ VT (%s)" anti)));
  let at t q = texts (M.query m (Printf.sprintf "SEQ VT AS OF %d (%s)" t q)) in
  Alcotest.(check (list string)) "semijoin at 7" [ "(1)" ] (at 7 semi);
  Alcotest.(check (list string)) "antijoin at 7" [] (at 7 anti);
  Alcotest.(check (list string)) "semijoin at 12" [] (at 12 semi);
  Alcotest.(check (list string)) "antijoin at 12" [ "(1)" ] (at 12 anti)

(* --- FOR PORTION OF --- *)

let count_query m sql = Table.cardinality (M.query m sql)

let test_portion_update () =
  let m = fresh () in
  (* retrain Ann as NS during [5, 8): her SP row [3,10) must split *)
  ignore
    (M.execute m
       "UPDATE works FOR PORTION OF vt FROM 5 TO 8 SET skill = 'NS' WHERE name = 'Ann'");
  let rows =
    M.query m "SELECT name, skill, b, e FROM works WHERE name = 'Ann' ORDER BY b"
  in
  let expected =
    Table.make
      (Schema.make
         [
           Schema.attr "name" Value.TStr; Schema.attr "skill" Value.TStr;
           Schema.attr "b" Value.TInt; Schema.attr "e" Value.TInt;
         ])
      [
        Tuple.make [ str "Ann"; str "SP"; int 3; int 5 ];
        Tuple.make [ str "Ann"; str "NS"; int 5; int 8 ];
        Tuple.make [ str "Ann"; str "SP"; int 8; int 10 ];
        Tuple.make [ str "Ann"; str "SP"; int 18; int 20 ];
      ]
  in
  Alcotest.check table_bag "row splitting" expected rows;
  (* snapshot count must now dip to 0 during [5, 8) at SP *)
  let t =
    M.query m "SEQ VT AS OF 6 (SELECT count(*) AS c FROM works WHERE skill = 'SP')"
  in
  Alcotest.(check bool) "SP count is 0 at 6" true
    (Value.equal (Tuple.get (Table.rows t).(0) 0) (Value.Int 0))

let test_portion_update_outside () =
  let m = fresh () in
  ignore
    (M.execute m
       "UPDATE works FOR PORTION OF vt FROM 20 TO 24 SET skill = 'NS' WHERE name = 'Joe'");
  (* Joe's row [8,16) does not overlap [20,24): unchanged *)
  Alcotest.(check int) "unchanged" 4 (count_query m "SELECT * FROM works")

let test_portion_delete () =
  let m = fresh () in
  ignore (M.execute m "DELETE FROM works FOR PORTION OF vt FROM 9 TO 12 WHERE name = 'Sam'");
  let rows = M.query m "SELECT b, e FROM works WHERE name = 'Sam' ORDER BY b" in
  let expected =
    Table.make
      (Schema.make [ Schema.attr "b" Value.TInt; Schema.attr "e" Value.TInt ])
      [ Tuple.make [ int 8; int 9 ]; Tuple.make [ int 12; int 16 ] ]
  in
  Alcotest.check table_bag "delete splits" expected rows

let test_plain_update_delete () =
  let m = fresh () in
  ignore (M.execute m "UPDATE works SET skill = 'XX' WHERE name = 'Joe'");
  Alcotest.(check int) "one XX row" 1
    (count_query m "SELECT * FROM works WHERE skill = 'XX'");
  ignore (M.execute m "DELETE FROM works WHERE skill = 'XX'");
  Alcotest.(check int) "deleted" 3 (count_query m "SELECT * FROM works")

let test_portion_requires_period_table () =
  let m = fresh () in
  ignore (M.execute m "CREATE TABLE plain (x int)");
  (try
     ignore (M.execute m "UPDATE plain FOR PORTION OF vt FROM 1 TO 2 SET x = 1");
     Alcotest.fail "expected error"
   with M.Error _ -> ());
  try
    ignore
      (M.execute m "UPDATE works FOR PORTION OF vt FROM 1 TO 2 SET b = 99");
    Alcotest.fail "expected error on setting period column"
  with M.Error _ -> ()

(* --- bitemporal (K^VT)^TT --- *)

module VT = struct
  let domain = Tkr_timeline.Domain.make ~tmin:0 ~tmax:24
end

module TT = struct
  let domain = Tkr_timeline.Domain.make ~tmin:100 ~tmax:200
end

module Bi = Tkr_core.Bitemporal.Make (Tkr_semiring.Nat) (VT) (TT)

let bi_schema = Schema.make [ Schema.attr "name" Value.TStr ]

(* At transaction time 100 we recorded Ann as working [3, 10); at
   transaction time 150 the record was corrected to [3, 12). *)
let bi_facts =
  [
    (tup [ str "Ann" ], (100, 150), (3, 10), 1);
    (tup [ str "Ann" ], (150, 200), (3, 12), 1);
    (tup [ str "Sam" ], (120, 200), (8, 16), 1);
  ]

let test_bitemporal_timeslices () =
  let r = Bi.of_facts bi_schema bi_facts in
  (* before the correction: Ann not working at vt = 11 *)
  let before = Bi.timeslice r ~tt:120 ~vt:11 in
  Alcotest.(check int) "Ann at (120, 11)" 0 (Bi.RK.annot before (tup [ str "Ann" ]));
  (* after the correction: she is *)
  let after = Bi.timeslice r ~tt:160 ~vt:11 in
  Alcotest.(check int) "Ann at (160, 11)" 1 (Bi.RK.annot after (tup [ str "Ann" ]));
  (* Sam only exists from tt = 120 *)
  Alcotest.(check int) "Sam unknown at tt=110" 0
    (Bi.RK.annot (Bi.timeslice r ~tt:110 ~vt:12) (tup [ str "Sam" ]));
  Alcotest.(check int) "Sam known at tt=130" 1
    (Bi.RK.annot (Bi.timeslice r ~tt:130 ~vt:12) (tup [ str "Sam" ]))

let test_bitemporal_query_commutes () =
  (* snapshot reducibility in both dimensions: project and compare at
     every (tt, vt) pair on a coarse grid *)
  let r = Bi.of_facts bi_schema bi_facts in
  let db = function "r" -> r | n -> invalid_arg n in
  let q =
    Algebra.Project ([ Algebra.proj (Expr.Col 0) "name" ], Algebra.Rel "r")
  in
  let result = Bi.eval db q in
  List.iter
    (fun tt ->
      List.iter
        (fun vt ->
          let direct = Bi.timeslice result ~tt ~vt in
          let via_slices =
            (* slice first, then evaluate over the plain K-relation *)
            let module NE = Tkr_relation.Eval.Make (Tkr_semiring.Nat) in
            NE.eval (fun _ -> Bi.timeslice r ~tt ~vt) q
          in
          Alcotest.(check bool)
            (Printf.sprintf "commutes at tt=%d vt=%d" tt vt)
            true
            (Bi.RK.equal direct via_slices))
        [ 0; 5; 9; 11; 15; 23 ])
    [ 100; 119; 120; 149; 150; 199 ]

let test_bitemporal_union_multiplicity () =
  let r = Bi.of_facts bi_schema bi_facts in
  let db = function "r" -> r | n -> invalid_arg n in
  let q = Algebra.Union (Algebra.Rel "r", Algebra.Rel "r") in
  let result = Bi.eval db q in
  Alcotest.(check int) "doubled multiplicity" 2
    (Bi.RK.annot (Bi.timeslice result ~tt:160 ~vt:11) (tup [ str "Ann" ]))

let suite =
  ( "extensions (AS OF, portion updates, bitemporal)",
    [
      prop_as_of_matches_snapshot;
      Alcotest.test_case "AS OF output schema" `Quick test_as_of_schema;
      Alcotest.test_case "AS OF domain edges and plan shape" `Quick
        test_as_of_domain_edges;
      Alcotest.test_case "temporal semijoin and antijoin" `Quick
        test_semijoin_antijoin;
      Alcotest.test_case "FOR PORTION OF update splits rows" `Quick
        test_portion_update;
      Alcotest.test_case "portion update outside period" `Quick
        test_portion_update_outside;
      Alcotest.test_case "FOR PORTION OF delete splits rows" `Quick
        test_portion_delete;
      Alcotest.test_case "plain update/delete" `Quick test_plain_update_delete;
      Alcotest.test_case "portion errors" `Quick test_portion_requires_period_table;
      Alcotest.test_case "bitemporal timeslices" `Quick test_bitemporal_timeslices;
      Alcotest.test_case "bitemporal snapshot reducibility" `Quick
        test_bitemporal_query_commutes;
      Alcotest.test_case "bitemporal multiset union" `Quick
        test_bitemporal_union_multiplicity;
    ] )

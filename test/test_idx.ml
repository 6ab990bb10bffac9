(* Tkr_idx: interval index probe units, build/rebuild accounting, and
   qcheck differential properties asserting the vectorized engine's index
   access path is byte-identical to the row oracle's scan, over
   NULL-heavy and empty inputs. *)

module Value = Tkr_relation.Value
module Schema = Tkr_relation.Schema
module Tuple = Tkr_relation.Tuple
module Expr = Tkr_relation.Expr
module Algebra = Tkr_relation.Algebra
module Table = Tkr_engine.Table
module Database = Tkr_engine.Database
module Exec = Tkr_engine.Exec
module Idx_cache = Tkr_engine.Idx_cache
module Vexec = Tkr_vec.Vexec
module Interval = Tkr_idx.Interval
module Probe = Tkr_idx.Probe
module M = Tkr_middleware.Middleware
module Trace = Tkr_obs.Trace

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains hay needle =
  let n = String.length hay and m = String.length needle in
  let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
  go 0

let byte_identical a b =
  let ra = Table.rows a and rb = Table.rows b in
  Array.length ra = Array.length rb
  && Array.for_all2 Tuple.equal ra rb
  && String.equal (Table.to_text a) (Table.to_text b)

(* ---- interval index probes vs brute force ---- *)

let brute_stab periods at =
  let out = ref [] in
  Array.iteri (fun i (b, e) -> if b <= at && at < e then out := i :: !out) periods;
  Array.of_list (List.rev !out)

let build periods =
  Interval.build (Array.map fst periods) (Array.map snd periods)

let test_interval_probe () =
  let periods = [| (3, 10); (8, 16); (8, 16); (18, 20); (5, 5); (0, max_int) |] in
  let idx = build periods in
  List.iter
    (fun at ->
      Alcotest.(check (array int))
        (Printf.sprintf "stab %d = brute force, in physical order" at)
        (brute_stab periods at) (Interval.stab idx at))
    [ -1; 0; 3; 5; 8; 9; 10; 15; 16; 18; 19; 20; 1000 ];
  (* an exclusive lower bound at max_int matches nothing (no end lies
     beyond max_int); guards the min_end overflow *)
  Alcotest.(check (array int))
    "exclusive max_int end bound is empty" [||]
    (Interval.probe idx
       ~b_hi:{ Interval.v = max_int; incl = true }
       ~e_lo:{ Interval.v = max_int; incl = false });
  (* inclusive max_int keeps the open-ended row *)
  Alcotest.(check (array int))
    "inclusive max_int end bound keeps open-ended rows" [| 5 |]
    (Interval.probe idx
       ~b_hi:{ Interval.v = max_int; incl = true }
       ~e_lo:{ Interval.v = max_int; incl = true });
  let empty = build [||] in
  Alcotest.(check (array int)) "empty index stabs empty" [||]
    (Interval.stab empty 0);
  check_int "empty index size" 0 (Interval.size empty)

(* the probe's scan-order sort: row ids below the table size, over one
   to three 8-bit digits *)
let prop_sort_below =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"radix sort_below = List.sort"
       QCheck.(pair (int_range 1 3) (list (int_range 0 max_int)))
       (fun (digits, xs) ->
         let bound = 1 lsl (8 * digits) in
         let a = Array.of_list (List.map (fun x -> x mod bound) xs) in
         let expected = List.sort Int.compare (Array.to_list a) in
         Tkr_idx.Isort.sort_below a ~bound;
         Array.to_list a = expected))

let prop_probe_vs_brute =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300
       ~name:"random probe: interval index = brute-force filter"
       QCheck.(
         pair
           (small_list (pair (int_range (-5) 30) (int_range (-5) 30)))
           (quad (int_range (-6) 31) bool (int_range (-6) 31) bool))
       (fun (ps, (bv, bi, ev, ei)) ->
         let periods = Array.of_list ps in
         let idx = build periods in
         let b_hi = { Interval.v = bv; incl = bi }
         and e_lo = { Interval.v = ev; incl = ei } in
         let brute =
           let out = ref [] in
           Array.iteri
             (fun i (b, e) ->
               let b_ok = if bi then b <= bv else b < bv
               and e_ok = if ei then e >= ev else e > ev in
               if b_ok && e_ok then out := i :: !out)
             periods;
           Array.of_list (List.rev !out)
         in
         Interval.probe idx ~b_hi ~e_lo = brute))

(* ---- engine-level differential: index path = scan path ---- *)

let w_schema =
  Schema.make
    [
      Schema.attr "name" Value.TStr;
      Schema.attr "b" Value.TInt;
      Schema.attr "e" Value.TInt;
    ]

(* NULL-heavy data column, arbitrary (including degenerate) periods *)
let gen_rows =
  QCheck.Gen.(
    list_size (0 -- 25)
      (triple
         (oneof [ return None; map Option.some (string_size (0 -- 2)) ])
         (int_range (-4) 28) (int_range (-4) 28)))

let arb_rows =
  QCheck.make
    ~print:(fun rows ->
      String.concat ";"
        (List.map
           (fun (n, b, e) ->
             Printf.sprintf "(%s,%d,%d)" (Option.value n ~default:"NULL") b e)
           rows))
    gen_rows

let mk_db rows =
  let tuples =
    List.map
      (fun (n, b, e) ->
        Tuple.make
          [
            (match n with None -> Value.Null | Some s -> Value.Str s);
            Value.Int b;
            Value.Int e;
          ])
      rows
  in
  let db = Database.create ~tmin:0 ~tmax:24 () in
  Database.add_period_table db "w" (Table.make w_schema tuples);
  db

let alive_pred arity t =
  Expr.(
    And
      ( Cmp (Le, Col (arity - 2), Const (Value.Int t)),
        Cmp (Lt, Const (Value.Int t), Col (arity - 1)) ))

let prop_select_differential =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:150
       ~name:"AS OF selection: index = scan on row and vec engines"
       QCheck.(pair arb_rows (int_range (-4) 28))
       (fun (rows, t) ->
         let db = mk_db rows in
         let q = Algebra.Select (alive_pred 3 t, Algebra.Rel "w") in
         byte_identical (Exec.eval db q) (Vexec.eval ~use_index:true db q)))

(* ---- middleware end to end: flag, DML invalidation, EXPLAIN ---- *)

let seed_m ?index ?engine () =
  let m = M.create ?index ?engine () in
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

(* the shipped (vec) engine with the index against the row oracle
   without it *)
let test_middleware_flag () =
  let m = seed_m () and oracle = seed_m ~index:false ~engine:M.Row () in
  List.iter
    (fun sql ->
      Alcotest.(check string) sql
        (Table.to_text (M.query m sql))
        (Table.to_text (M.query oracle sql)))
    [
      "SEQ VT AS OF 9 (SELECT name FROM works)";
      "SEQ VT AS OF 9 (SELECT name FROM works WHERE skill = 'SP')";
      "SEQ VT (SELECT count(*) AS c FROM works)";
      "SELECT name FROM works WHERE b <= 9 AND e >= 10";
    ]

let test_dml_invalidation () =
  let m = seed_m () in
  let q = "SEQ VT AS OF 9 (SELECT name FROM works)" in
  check_int "three alive at 9" 3 (Table.cardinality (M.query m q));
  (* the DML installs a fresh table value and bumps the version; a stale
     cached index must not be consulted *)
  ignore (M.execute m "INSERT INTO works VALUES ('Eve', 'SP', 1, 23)");
  check_int "index rebuilt after INSERT" 4 (Table.cardinality (M.query m q));
  ignore (M.execute m "DELETE FROM works WHERE name = 'Joe'");
  check_int "index rebuilt after DELETE" 3 (Table.cardinality (M.query m q))

(* the access=index|scan attributes of an executed plan's spans, in
   execution (pre-)order *)
let span_access obs =
  let out = ref [] in
  List.iter
    (Trace.iter (fun sp ->
         match Trace.find_attr sp "access" with
         | Some (Trace.Str v) -> out := v :: !out
         | _ -> ()))
    (Trace.roots obs);
  List.rev !out

(* EXPLAIN's access line against EXPLAIN ANALYZE's spans: the tables the
   line marks [=index] are exactly the reads that ran as index probes.
   Plan order and execution order agree, so on vec (which reports an
   access path for every period-table selection) the whole line must
   equal the span sequence; on row no read may claim the index. *)
let check_access_agrees m sql =
  let p = M.prepare m sql in
  let obs = Trace.create () in
  ignore (M.run_prepared ~obs m p);
  let decided = List.map snd p.M.access and ran = span_access obs in
  let index l = List.filter (String.equal "index") l in
  Alcotest.(check (list string))
    ("index reads: " ^ sql) (index decided) (index ran);
  if M.engine m = M.Vec then
    Alcotest.(check (list string)) ("access paths: " ^ sql) decided ran

let test_explain_access () =
  let stab = "SEQ VT AS OF 9 (SELECT name FROM works)" in
  let m = seed_m () in
  check "EXPLAIN shows the index access path" true
    (contains (M.explain m stab) "access: works=index");
  check "EXPLAIN shows the scan path when disabled" true
    (contains (M.explain (seed_m ~index:false ()) stab) "access: works=scan");
  (* a data-column-only filter is not index-answerable *)
  let ex = M.explain m "SELECT name FROM works WHERE skill = 'SP'" in
  check "non-period predicate scans" true (contains ex "works=scan");
  (* the row oracle always scans, whatever the flag says *)
  check "row engine scans" true
    (contains (M.explain (seed_m ~engine:M.Row ()) stab) "access: works=scan");
  (* the line agrees with the executed spans on both engines: the Fig. 1
     interval join, AS OF stabs, and the ten employee queries *)
  let edb =
    Tkr_workload.Employees.(generate { (scaled 40) with tmax = 2000 })
  in
  Database.add_period_table edb "history"
    (Tkr_workload.Employees.coalesce_input ~n:2_000 ~seed:31 ~tmax:2000);
  List.iter
    (fun engine ->
      let m = seed_m ~engine () in
      ignore
        (M.execute_script m
           {|
           CREATE TABLE assign (mach text, skill text, b int, e int)
             PERIOD (b, e);
           INSERT INTO assign VALUES
             ('M1', 'SP', 3, 12), ('M2', 'SP', 6, 14), ('M3', 'NS', 3, 16);
         |});
      let me = M.create ~engine ~db:edb () in
      List.iter (check_access_agrees m)
        [
          "SEQ VT (SELECT w.name, a.mach FROM works w, assign a)";
          "SEQ VT AS OF 9 (SELECT name FROM works)";
          "SEQ VT AS OF 9 (SELECT w.name, a.mach FROM works w, assign a \
           WHERE w.skill = a.skill)";
        ];
      List.iter (check_access_agrees me)
        ([
           "SEQ VT AS OF 1000 (SELECT emp_no FROM history)";
           "SEQ VT AS OF 13 (SELECT count(*) AS c FROM history)";
         ]
        @ List.map snd Tkr_workload.Queries.employee))
    [ M.Vec; M.Row ]

let test_cache_reuse () =
  let db = Database.create ~tmin:0 ~tmax:24 () in
  Database.add_period_table db "w"
    (Table.make w_schema
       [ Tuple.make [ Value.Str "a"; Value.Int 0; Value.Int 9 ] ]);
  match (Idx_cache.get db "w", Idx_cache.get db "w") with
  | Some a, Some b ->
      check "second lookup reuses the cached index" true (a == b);
      check_int "index covers the rows" 1 (Interval.size a)
  | _ -> Alcotest.fail "expected an index over a period table"

(* Tkr_idx.Stats deltas: an index is built once per table value, and a
   build after DML is a rebuild however many DMLs ran since the last
   read; DROP then CREATE starts a fresh history *)
let test_build_accounting () =
  let m = seed_m () in
  let db = M.database m in
  let q = "SEQ VT AS OF 9 (SELECT name FROM works)" in
  let counts () =
    let s = Tkr_idx.Stats.snapshot () in
    (s.Tkr_idx.Stats.s_built, s.Tkr_idx.Stats.s_rebuilds)
  in
  let expect what f (built, rebuilt) =
    let b0, r0 = counts () in
    let r = f () in
    let b1, r1 = counts () in
    check_int (what ^ ": builds") built (b1 - b0);
    check_int (what ^ ": rebuilds") rebuilt (r1 - r0);
    r
  in
  let first = expect "first get" (fun () -> Idx_cache.get db "works") (1, 0) in
  let second = expect "second get" (fun () -> Idx_cache.get db "works") (0, 0) in
  check "second get returns the same index" true
    (match (first, second) with Some a, Some b -> a == b | _ -> false);
  ignore (M.execute m "INSERT INTO works VALUES ('Eve', 'SP', 1, 23)");
  expect "first read after INSERT" (fun () -> ignore (M.query m q)) (1, 1);
  expect "two DMLs, then a read"
    (fun () ->
      ignore (M.execute m "INSERT INTO works VALUES ('Bob', 'NS', 2, 4)");
      ignore (M.execute m "DELETE FROM works WHERE name = 'Joe'");
      ignore (M.query m q))
    (1, 1);
  expect "DROP then CREATE"
    (fun () ->
      ignore
        (M.execute_script m
           {|
           DROP TABLE works;
           CREATE TABLE works (name text, skill text, b int, e int)
             PERIOD (b, e);
           INSERT INTO works VALUES ('Ann', 'SP', 3, 10);
         |});
      ignore (M.query m q))
    (1, 0)

let suite =
  ( "temporal indexes (Tkr_idx)",
    [
      Alcotest.test_case "interval probe vs brute force" `Quick
        test_interval_probe;
      prop_probe_vs_brute;
      prop_select_differential;
      Alcotest.test_case "middleware index on/off identity" `Quick
        test_middleware_flag;
      Alcotest.test_case "DML invalidates the cached index" `Quick
        test_dml_invalidation;
      Alcotest.test_case "EXPLAIN access line" `Quick test_explain_access;
      Alcotest.test_case "index cache reuse" `Quick test_cache_reuse;
      Alcotest.test_case "index build and rebuild accounting" `Quick
        test_build_accounting;
      prop_sort_below;
    ] )

(* Tkr_idx: delta-summation prefix sums at interval boundaries, interval
   index probe units, and qcheck differential properties asserting the
   vectorized engine's index access path is byte-identical to the row
   oracle's scan, over NULL-heavy and empty inputs. *)

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
module Delta = Tkr_idx.Delta
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

(* ---- delta summation at interval boundaries ---- *)

let test_delta_boundaries () =
  (* adjacent periods [0,5) and [5,10): half-open, no double count at
     the seam *)
  let d = Delta.build [| (0, 5); (5, 10) |] in
  check_int "alive at 0 (closed begin)" 1 (Delta.count_at d 0);
  check_int "alive at 4" 1 (Delta.count_at d 4);
  check_int "seam at 5: first ended exactly as second starts" 1
    (Delta.count_at d 5);
  check_int "alive at 9" 1 (Delta.count_at d 9);
  check_int "dead at 10 (open end)" 0 (Delta.count_at d 10);
  check_int "before all begins" 0 (Delta.count_at d (-1));
  check_int "overlap [4,6) sees both" 2 (Delta.count_overlapping d ~lo:4 ~hi:6);
  check_int "empty window [5,5)" 0 (Delta.count_overlapping d ~lo:5 ~hi:5);
  check_int "inverted window" 0 (Delta.count_overlapping d ~lo:9 ~hi:2);
  (* zero-length period [3,3): the +1 and -1 deltas cancel everywhere *)
  let z = Delta.build [| (3, 3) |] in
  check_int "zero-length period alive nowhere" 0 (Delta.count_at z 3);
  (* count_overlapping is the endpoint estimate [b < hi && e > lo]: a
     zero-length period inside the window is a candidate (the full
     predicate later rejects it), one outside the endpoint bounds not *)
  check_int "zero-length inside window is a candidate" 1
    (Delta.count_overlapping z ~lo:0 ~hi:10);
  check_int "zero-length right of window" 0
    (Delta.count_overlapping z ~lo:0 ~hi:3);
  check_int "zero-length left of window" 0
    (Delta.count_overlapping z ~lo:3 ~hi:10);
  (* open-ended period [2, max_int): alive arbitrarily far out *)
  let o = Delta.build [| (2, max_int) |] in
  check_int "open-ended alive at max_int - 1" 1 (Delta.count_at o (max_int - 1));
  check_int "open-ended not alive before its begin" 0 (Delta.count_at o 1);
  (* empty structure *)
  let e = Delta.build [||] in
  check_int "empty delta counts zero" 0 (Delta.count_at e 0);
  check_int "empty delta overlaps zero" 0 (Delta.count_overlapping e ~lo:0 ~hi:9)

(* ---- interval index probes vs brute force ---- *)

let brute_stab periods at =
  let out = ref [] in
  Array.iteri (fun i (b, e) -> if b <= at && at < e then out := i :: !out) periods;
  Array.of_list (List.rev !out)

let test_interval_probe () =
  let periods = [| (3, 10); (8, 16); (8, 16); (18, 20); (5, 5); (0, max_int) |] in
  let idx = Interval.build periods in
  List.iter
    (fun at ->
      Alcotest.(check (array int))
        (Printf.sprintf "stab %d = brute force, in physical order" at)
        (brute_stab periods at) (Interval.stab idx at);
      check_int
        (Printf.sprintf "delta count_at %d = reported candidates" at)
        (Array.length (brute_stab periods at))
        (Interval.count_at idx at))
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
  let empty = Interval.build [||] in
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
         let idx = Interval.build periods in
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

let seed_m () =
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

(* the shipped (vec) engine with the index against the row oracle
   without it *)
let test_middleware_flag () =
  let m = seed_m () in
  List.iter
    (fun sql ->
      M.set_index m true;
      M.set_engine m M.Vec;
      let on_ = Table.to_text (M.query m sql) in
      M.set_index m false;
      M.set_engine m M.Row;
      let off = Table.to_text (M.query m sql) in
      Alcotest.(check string) sql on_ off)
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
  let m = seed_m () in
  let ex = M.explain m "SEQ VT AS OF 9 (SELECT name FROM works)" in
  check "EXPLAIN shows the index access path" true
    (contains ex "access: works=index");
  M.set_index m false;
  let ex = M.explain m "SEQ VT AS OF 9 (SELECT name FROM works)" in
  check "EXPLAIN shows the scan path when disabled" true
    (contains ex "access: works=scan");
  M.set_index m true;
  (* a data-column-only filter is not index-answerable *)
  let ex = M.explain m "SELECT name FROM works WHERE skill = 'SP'" in
  check "non-period predicate scans" true (contains ex "works=scan");
  (* the row oracle always scans, whatever the flag says *)
  M.set_engine m M.Row;
  let ex = M.explain m "SEQ VT AS OF 9 (SELECT name FROM works)" in
  check "row engine scans" true (contains ex "access: works=scan");
  (* the line agrees with the executed spans on both engines: the Fig. 1
     interval join, AS OF stabs, and the ten employee queries *)
  ignore
    (M.execute_script m
       {|
       CREATE TABLE assign (mach text, skill text, b int, e int) PERIOD (b, e);
       INSERT INTO assign VALUES
         ('M1', 'SP', 3, 12), ('M2', 'SP', 6, 14), ('M3', 'NS', 3, 16);
     |});
  let edb =
    Tkr_workload.Employees.(generate { (scaled 40) with tmax = 2000 })
  in
  Database.add_period_table edb "history"
    (Tkr_workload.Employees.coalesce_input ~n:2_000 ~seed:31 ~tmax:2000);
  let me = M.create ~db:edb () in
  List.iter
    (fun engine ->
      M.set_engine m engine;
      M.set_engine me engine;
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

let suite =
  ( "temporal indexes (Tkr_idx)",
    [
      Alcotest.test_case "delta summation at boundaries" `Quick
        test_delta_boundaries;
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
      prop_sort_below;
    ] )

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
module Batch = Tkr_engine.Batch
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

(* the probe's scan-order sort (row ids below the table size) and the
   sweeps' packed endpoint keys: one to eight 8-bit digits, the last
   bounded by max_int, sorting a prefix of the array *)
let prop_sort_below =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"radix sort_below = List.sort"
       QCheck.(triple (int_range 1 8) (int_range 0 3) (list (int_range 0 max_int)))
       (fun (digits, tail, xs) ->
         let bound = if digits = 8 then max_int else 1 lsl (8 * digits) in
         let a = Array.of_list (List.map (fun x -> x mod bound) xs) in
         let expected = List.sort Int.compare (Array.to_list a) in
         let n = Array.length a in
         let padded = Array.append a (Array.make tail (-1)) in
         Tkr_idx.Isort.sort_below ~len:n padded ~bound;
         Array.to_list (Array.sub padded 0 n) = expected
         && Array.for_all (( = ) (-1)) (Array.sub padded n tail)))

(* A conjunct over a two-column period relation ([b] = column 0, [e] =
   column 1) by kind: 0-3 bound the begin from above and 4-7 the end
   from below, in both operand orders; 8-11 are no bound form: an
   equality, [<>], a lower bound on the begin, and a column-vs-column
   comparison. *)
let conjunct (kind, k) =
  let b = Expr.Col 0 and e = Expr.Col 1 and k = Expr.Const (Value.Int k) in
  let cmp op x y = Expr.Cmp (op, x, y) in
  match kind with
  | 0 -> cmp Expr.Le b k
  | 1 -> cmp Expr.Lt b k
  | 2 -> cmp Expr.Ge k b
  | 3 -> cmp Expr.Gt k b
  | 4 -> cmp Expr.Ge e k
  | 5 -> cmp Expr.Gt e k
  | 6 -> cmp Expr.Le k e
  | 7 -> cmp Expr.Lt k e
  | 8 -> cmp Expr.Eq b k
  | 9 -> cmp Expr.Ne e k
  | 10 -> cmp Expr.Ge b k
  | _ -> cmp Expr.Lt b e

(* Besides the index against a brute-force filter, the recognized
   predicate: a begin bound, an end bound and random further conjuncts.
   Its candidates always include the rows it keeps, and equal them when
   every conjunct is a bound form ([exact]). *)
let prop_probe_vs_brute =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300
       ~name:"random probe: interval index = brute-force filter"
       QCheck.(
         triple
           (small_list (pair (int_range (-5) 30) (int_range (-5) 30)))
           (quad (int_range (-6) 31) bool (int_range (-6) 31) bool)
           (triple (int_range 0 3) (int_range 4 7)
              (small_list (pair (int_range 0 11) (int_range (-6) 31)))))
       (fun (ps, (bv, bi, ev, ei), (bk, ek, extra)) ->
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
         let pred =
           List.fold_left
             (fun acc c -> Expr.And (acc, conjunct c))
             (Expr.And (conjunct (bk, bv), conjunct (ek, ev)))
             extra
         in
         let kept =
           List.filter
             (fun i ->
               let b, e = periods.(i) in
               Expr.eval (Tuple.make [ Value.Int b; Value.Int e ]) pred
               = Value.Bool true)
             (List.init (Array.length periods) Fun.id)
         in
         Interval.probe idx ~b_hi ~e_lo = brute
         &&
         match Probe.bounds ~arity:2 pred with
         | None -> false
         | Some { Probe.b_hi; e_lo; exact } ->
             let cand = Array.to_list (Interval.probe idx ~b_hi ~e_lo) in
             exact = List.for_all (fun (k, _) -> k < 8) extra
             && List.for_all (fun i -> List.mem i cand) kept
             && ((not exact) || cand = kept)))

(* [Probe.bounds]' exactness on the shapes the planner sees *)
let test_bounds_exact () =
  (* (name, x, b, e): the period columns are 2 and 3 *)
  let b = Expr.Col 2 and e = Expr.Col 3 and x = Expr.Col 1 in
  let k v = Expr.Const (Value.Int v) in
  let stab = Expr.And (Expr.Cmp (Expr.Le, b, k 5), Expr.Cmp (Expr.Lt, k 5, e)) in
  let exact p =
    match Probe.bounds ~arity:4 p with
    | Some { Probe.exact; _ } -> Some exact
    | None -> None
  in
  let case name expect p = Alcotest.(check (option bool)) name expect (exact p) in
  case "AS OF stab: exact" (Some true) stab;
  case "overlap range: exact" (Some true)
    (Expr.And (Expr.Cmp (Expr.Lt, b, k 10), Expr.Cmp (Expr.Gt, e, k 3)));
  case "two bounds on one side: exact" (Some true)
    (Expr.And (stab, Expr.Cmp (Expr.Ge, k 4, b)));
  case "begin = k: not exact" (Some false)
    (Expr.And (Expr.Cmp (Expr.Eq, b, k 5), Expr.Cmp (Expr.Gt, e, k 3)));
  case "end <> k: not exact" (Some false) (Expr.And (stab, Expr.Cmp (Expr.Ne, e, k 9)));
  case "a data-column conjunct: not exact" (Some false)
    (Expr.And (stab, Expr.Cmp (Expr.Eq, x, k 1)));
  case "column vs column: not exact" (Some false) (Expr.And (stab, Expr.Cmp (Expr.Lt, b, e)));
  case "one side only: not answerable" None (Expr.Cmp (Expr.Le, b, k 5))

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
  (* the access paths are computed for EXPLAIN only *)
  let stmt = Tkr_sql.Parser.statement sql in
  let p = M.bind ~explain:true m (M.optimize m (M.shape m stmt)) (M.point stmt) in
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

(* ---- the radix build and derived images ---- *)

(* the build the radix one replaced: a merge-sort sweep order and a tree
   filled with the polymorphic max *)
let merge_sort_build (b : int array) (e : int array) : Interval.t =
  let rows = Tkr_idx.Isort.perm b in
  let m = Array.length rows in
  let leaves =
    let l = ref 1 in
    while !l < m do
      l := 2 * !l
    done;
    !l
  in
  let seg = Array.make (2 * leaves) min_int in
  Array.iteri (fun k i -> seg.(leaves + k) <- e.(i)) rows;
  for node = leaves - 1 downto 1 do
    seg.(node) <- max seg.(2 * node) seg.((2 * node) + 1)
  done;
  { Interval.rows; begins = Array.map (fun i -> b.(i)) rows; seg; leaves }

(* begins drawn from a small signed range, all equal, a range past 2^56
   whose packed keys still fit, and one spanning the whole int range
   (where only the merge-sort fallback fits) *)
let prop_build_vs_merge_sort =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:400 ~name:"radix index build = merge-sort build"
       QCheck.(
         pair (int_range 0 3)
           (list_of_size Gen.(0 -- 70) (pair (int_range (-50) 50) int)))
       (fun (shape, ps) ->
         let b =
           Array.of_list
             (List.map
                (fun (x, _) ->
                  match shape with
                  | 0 -> x
                  | 1 -> 7
                  | 2 -> x lsl 50
                  | _ -> if x < 0 then min_int - x else max_int - x)
                ps)
         in
         let e = Array.of_list (List.map snd ps) in
         compare (Interval.build b e) (merge_sort_build b e) = 0))

let test_build_edges () =
  List.iter
    (fun (what, b, e) ->
      check what true (compare (Interval.build b e) (merge_sort_build b e) = 0))
    [
      ("empty", [||], [||]);
      ("one row", [| -3 |], [| 4 |]);
      ("all begins equal", [| 5; 5; 5; 5 |], [| 9; 6; 8; 7 |]);
      ("negative begins", [| -1; -7; 3; -7 |], [| 0; 1; 9; -2 |]);
      ("span past 2^56", [| 0; 1 lsl 57; 1 lsl 56 |], [| 1; 2; 3 |]);
      ("whole int range", [| max_int; min_int; 0; min_int |], [| 1; 2; 3; 4 |]);
    ]

(* Random write sequences against three middlewares (the default, the
   row oracle, the index off): the AS OF results agree byte for byte, and
   after the reads marked for it the default's and the index-off
   middleware's images equal fresh ones.  After every write each
   middleware's rows equal a flat-array model of the documented order
   (rows kept in place, an UPDATE's or DELETE's new rows last, in the
   order of the rows they replace), every segment's live rows sum to the
   cardinality, and the segments are within the merge rule's bound.
   Data columns int, text and float take NULLs; [x] is an int column
   that an occasional string makes boxed.  Short scripts check the
   images after every read.  Long ones start from a bulk load of 48 to
   96 rows, below and above {!Table.tail_rows}, and check them only now
   and then, so reads run over a growing tail of segments; their first
   read after a one-row INSERT must build no index. *)
type step =
  | Write of string
  | Read of string * bool  (* check the images after it *)
  | Delta_read of string  (* must build no index *)

let print_steps steps =
  String.concat ";\n"
    (List.map
       (function
         | Write s -> s
         | Read (s, c) -> if c then s ^ " -- images" else s
         | Delta_read s -> s ^ " -- builds nothing")
       steps)

let gen_script =
  let open QCheck.Gen in
  let lit xs = oneof (return "NULL" :: List.map return xs) in
  let i_val = lit [ "0"; "1"; "2"; "-3" ] and s_val = lit [ "'a'"; "'b'"; "'c'" ] in
  let f_val = lit [ "0.5"; "1.5"; "-2.0" ] in
  let x_val = frequency [ (8, lit [ "4"; "5" ]); (1, return "'q'") ] in
  let row_with s_val =
    map
      (fun ((i, s), (f, x), (b, d)) ->
        Printf.sprintf "(%s, %s, %s, %s, %d, %d)" i s f x b (b + d))
      (triple (pair i_val s_val) (pair f_val x_val)
         (pair (int_range 0 18) (int_range 1 5)))
  in
  let row = row_with s_val in
  (* rows a long script adds after its bulk load: [s] is 'n' or NULL *)
  let fresh_row = row_with (oneofl [ "'n'"; "'n'"; "NULL" ]) in
  let insert rows = map (fun rs -> "INSERT INTO w VALUES " ^ String.concat ", " rs) rows in
  let portion =
    opt
      (map
         (fun (a, d) -> Printf.sprintf " FOR PORTION OF PERIOD FROM %d TO %d" a (a + d))
         (pair (int_range 0 20) (int_range 1 8)))
  in
  let where =
    opt
      (oneof
         [
           map (Printf.sprintf " WHERE i = %s") (oneofl [ "0"; "1"; "2" ]);
           map (Printf.sprintf " WHERE s = %s") (oneofl [ "'a'"; "'b'" ]);
           map (Printf.sprintf " WHERE b < %d") (int_range 0 20);
         ])
  in
  let opt_s = Option.value ~default:"" in
  let set =
    oneof
      [
        map (Printf.sprintf "i = %s") i_val;
        map (Printf.sprintf "s = %s") s_val;
        map (Printf.sprintf "f = %s") f_val;
        map (Printf.sprintf "x = %s") x_val;
      ]
  in
  let write =
    frequency
      [
        (4, insert (list_size (1 -- 3) row));
        ( 3,
          map
            (fun ((p, s), w) -> Printf.sprintf "UPDATE w%s SET %s%s" (opt_s p) s (opt_s w))
            (pair (pair portion set) where) );
        ( 2,
          map
            (fun (p, w) -> Printf.sprintf "DELETE FROM w%s%s" (opt_s p) (opt_s w))
            (pair portion where) );
        (1, return "DELETE FROM w");
      ]
  in
  (* the long scripts' writes: mostly small, many on the fresh rows *)
  let small_write =
    frequency
      [
        (6, insert (list_size (return 1) fresh_row));
        (1, insert (list_size (3 -- 8) fresh_row));
        ( 2,
          map
            (fun ((a, d), s) ->
              Printf.sprintf
                "UPDATE w FOR PORTION OF PERIOD FROM %d TO %d SET %s WHERE s = 'n'" a
                (a + d) s)
            (pair (pair (int_range 0 20) (int_range 1 8)) set) );
        ( 1,
          map
            (fun (p, i) -> Printf.sprintf "DELETE FROM w%s WHERE i = %s" (opt_s p) i)
            (pair portion (oneofl [ "0"; "1"; "-3" ])) );
        ( 1,
          map
            (fun p -> Printf.sprintf "DELETE FROM w%s WHERE s = 'n'" (opt_s p))
            portion );
        (1, map (fun (s, w) -> Printf.sprintf "UPDATE w SET %s%s" s (opt_s w)) (pair set where));
        (* rare: every row of the bulk load goes *)
        (1, map (fun k -> if k = 0 then "DELETE FROM w" else "DELETE FROM w WHERE i = 2") (int_range 0 4));
      ]
  in
  (* half the reads keep only the rows whose [s] is a literal drawn from
     [lits]: 'a' in short scripts, whose rows take 'a', 'b', 'c' or NULL;
     'a' or 'n' in long ones, where 'n' marks the rows written after the
     bulk load *)
  let read lits check =
    map
      (fun (t, (filtered, lit)) ->
        Read
          ( Printf.sprintf "SEQ VT AS OF %d (SELECT i, s, f, x FROM w%s)" t
              (if filtered then " WHERE s = " ^ lit else ""),
            check ))
      (pair (int_range 0 23) (pair bool (oneofl lits)))
  in
  let writes g = map (List.map (fun w -> Write w)) g in
  let long_read = read [ "'a'"; "'n'" ] in
  let short =
    map List.concat
      (list_size (1 -- 8)
         (map2 (fun ws r -> ws @ [ r ]) (writes (list_size (1 -- 3) write)) (read [ "'a'" ] true)))
  in
  let long =
    map
      (fun ((load, first), (groups, last)) ->
        [
          Write load;
          Read ("SEQ VT AS OF 9 (SELECT i, s, f, x FROM w)", false);
          Write first;
          Delta_read "SEQ VT AS OF 12 (SELECT i, s, f, x FROM w)";
        ]
        @ List.concat groups @ [ last ])
      (pair
         (pair
            (insert (list_size (48 -- 96) row))
            (insert (list_size (return 1) fresh_row)))
         (pair
            (list_size (15 -- 40)
               (map2
                  (fun ws r -> ws @ [ r ])
                  (writes (list_size (1 -- 2) small_write))
                  (frequency [ (5, long_read false); (1, long_read true) ])))
            (long_read true)))
  in
  frequency [ (2, short); (1, long) ]

(* The rows after the write [sql], by the documented order: the kept
   rows in place, then the rows that replace each matching row, in the
   order of those rows.  WHERE, SET and literals are evaluated as the
   analyzer resolves them; the fragments of FOR PORTION OF are the
   model's own. *)
let model_write schema (rows : Tuple.t array) sql : Tuple.t array =
  let module Ast = Tkr_sql.Ast in
  let resolve e = Tkr_sql.Analyzer.resolve ~schema ~on_agg:Tkr_sql.Analyzer.no_agg e in
  let holds = function
    | None -> fun _ -> true
    | Some w ->
        let p = resolve w in
        fun r -> Expr.holds r p
  in
  let n = Schema.arity schema in
  let with_period r b e =
    let a = Array.init n (Tuple.get r) in
    a.(n - 2) <- Value.Int b;
    a.(n - 1) <- Value.Int e;
    Tuple.of_array a
  in
  let period r =
    match (Tuple.get r (n - 2), Tuple.get r (n - 1)) with
    | Value.Int b, Value.Int e -> (b, e)
    | _ -> assert false
  in
  let rewrite matches portion change =
    let kept = ref [] and added = ref [] in
    Array.iter
      (fun r ->
        let replaced =
          if not (matches r) then None
          else
            match portion with
            | None -> Some (Option.to_list (change r))
            | Some (a, b) ->
                let rb, re = period r in
                let ob = max rb a and oe = min re b in
                if ob >= oe then None
                else
                  Some
                    ((if rb < ob then [ with_period r rb ob ] else [])
                    @ (match change r with Some c -> [ with_period c ob oe ] | None -> [])
                    @ if oe < re then [ with_period r oe re ] else [])
        in
        match replaced with
        | None -> kept := r :: !kept
        | Some rs -> added := List.rev_append rs !added)
      rows;
    Array.of_list (List.rev_append !kept (List.rev !added))
  in
  match Tkr_sql.Parser.statement sql with
  | Ast.Insert { rows = fresh; _ } ->
      let lit e = Expr.eval (Tuple.make []) (resolve e) in
      Array.append rows
        (Array.of_list (List.map (fun r -> Tuple.of_array (Array.of_list (List.map lit r))) fresh))
  | Ast.Update { portion; sets; upd_where; _ } ->
      let sets = List.map (fun (c, e) -> (Schema.find schema c, resolve e)) sets in
      rewrite (holds upd_where) portion (fun r ->
          let a = Array.init n (Tuple.get r) in
          List.iter (fun (i, e) -> a.(i) <- Expr.eval r e) sets;
          Some (Tuple.of_array a))
  | Ast.Delete { del_portion; del_where; _ } ->
      rewrite (holds del_where) del_portion (fun _ -> None)
  | _ -> rows

(* the segment invariants: live rows sum to the cardinality, and the
   segments are within the merge rule's bound, or are a first segment
   below {!Table.tail_rows} rows and a tail of at most
   [1 / Table.tail_divisor] its size *)
let segments_ok (t : Table.t) =
  let l = Table.layout t in
  let k = Array.length l in
  let rows = Array.fold_left (fun acc (r, _) -> acc + r) 0 l in
  let rec pow b e = if e = 0 then 1 else b * pow b (e - 1) in
  let small_first () =
    k = 2
    && fst l.(0) < Table.tail_rows
    && Table.tail_divisor * fst l.(1) <= fst l.(0)
  in
  Array.fold_left (fun acc (_, live) -> acc + live) 0 l = Table.cardinality t
  && (k <= 1 || small_first () || pow Table.merge_ratio (k - 2) * Table.tail_rows <= rows)

let prop_derived_images =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:160
       ~name:"DML sequences: derived images = fresh images, AS OF agrees"
       (QCheck.make ~print:print_steps gen_script)
       (fun script ->
         let mk ?index ?engine () =
           let m = M.create ?index ?engine () in
           Database.set_time_bounds (M.database m) ~tmin:0 ~tmax:24;
           ignore
             (M.execute m
                "CREATE TABLE w (i int, s text, f float, x int, b int, e int) \
                 PERIOD (b, e)");
           m
         in
         let ms = [ mk (); mk ~engine:M.Row (); mk ~index:false () ] in
         let table m = Database.find (M.database m) "w" in
         let model = ref [||] in
         let images_fresh m =
           let t = table m in
           let fresh = Batch.of_rows (Table.schema t) (Table.rows t) in
           compare (Table.columnar t) fresh = 0
           &&
           match fresh.Batch.cols with
           | [| _; _; _; _; { data = Ints b; _ }; { data = Ints e; _ } |] ->
               (not (M.index_enabled m && M.engine m = M.Vec))
               || compare (Table.index t) (Some (Interval.build b e)) = 0
           | _ -> false
         in
         let agree sql =
           match List.map (fun m -> M.query m sql) ms with
           | [ d; r; i ] -> byte_identical d r && byte_identical d i
           | _ -> false
         in
         let built () = (Tkr_idx.Stats.snapshot ()).Tkr_idx.Stats.s_built in
         List.for_all
           (function
             | Write sql ->
                 model := model_write (Table.schema (table (List.hd ms))) !model sql;
                 List.for_all
                   (fun m ->
                     ignore (M.execute m sql);
                     let t = table m in
                     let rows = Table.rows t in
                     segments_ok t
                     && Array.length rows = Array.length !model
                     && Array.for_all2 Tuple.equal rows !model)
                   ms
             | Read (sql, check) ->
                 agree sql
                 && ((not check)
                    || (images_fresh (List.nth ms 0) && images_fresh (List.nth ms 2)))
             | Delta_read sql ->
                 let b0 = built () in
                 agree sql && built () = b0)
           script))

(* Chains of writes ({!Table.write}) with random deletions and
   appends, from a few rows to a hundred at a time, so segments merge
   and indexed segments lose rows, read by [Table.probe] with random
   bounds now and then, and given a whole-value index now and then:
   the rows follow the documented order, every probe returns the
   candidates a fresh index over the current rows returns, in order,
   with their cells, and whole images equal fresh ones.  Half the
   writes run while another domain builds their predecessor's whole
   index, as a read of an older catalog value may while a write
   publishes the next: both values must still read right. *)
let prop_successor_chains =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300
       ~name:"successor chains: Table.probe = a fresh index's probe"
       QCheck.(pair small_nat int)
       (fun (steps, seed) ->
         let st = Random.State.make [| seed |] in
         let rnd n = Random.State.int st n in
         let fresh_row () =
           let b = rnd 20 - 2 in
           Tuple.make
             [
               (if rnd 4 = 0 then Value.Null else Value.Str (string_of_int (rnd 3)));
               Value.Int b;
               Value.Int (b + rnd 6);
             ]
         in
         (* the columnar image and index a fresh build gives *)
         let fresh_images tbl =
           let fresh = Batch.of_rows w_schema (Table.rows tbl) in
           match fresh.Batch.cols with
           | [| _; { data = Ints b; _ }; { data = Ints e; _ } |] ->
               (fresh, Interval.build b e)
           | _ -> assert false
         in
         let probe_agrees tbl =
           let b_hi = { Interval.v = rnd 24 - 3; incl = rnd 2 = 0 }
           and e_lo = { Interval.v = rnd 24 - 3; incl = rnd 2 = 0 } in
           let rows = Table.rows tbl in
           let expect =
             Array.map (fun i -> rows.(i))
               (Interval.probe (snd (fresh_images tbl)) ~b_hi ~e_lo)
           in
           match Table.probe tbl ~b_hi ~e_lo with
           | Some p ->
               let got = Batch.to_rows p.Table.view in
               p.Table.candidates = Array.length expect
               && Array.length got = Array.length expect
               && Array.for_all2 Tuple.equal got expect
           | None -> false
         in
         let whole_agrees tbl =
           let fresh, idx = fresh_images tbl in
           compare (Table.columnar tbl) fresh = 0
           && compare (Table.index tbl) (Some idx) = 0
         in
         let t = ref (Table.of_array w_schema (Array.init (rnd 300) (fun _ -> fresh_row ()))) in
         let ok = ref true in
         for _ = 0 to (steps mod 12) + 4 do
           match rnd 4 with
           | 0 | 1 ->
               let old = !t in
               let reader =
                 if rnd 2 = 0 then Some (Domain.spawn (fun () -> ignore (Table.index old)))
                 else None
               in
               let old_rows = Table.rows old in
               let n = Array.length old_rows in
               let p = rnd 4 in
               let deleted =
                 List.filter (fun _ -> p > 0 && rnd (4 * p) = 0) (List.init n Fun.id)
               in
               let added =
                 Array.init
                   (if rnd 4 = 0 then 40 + rnd 60 else rnd 4)
                   (fun _ -> fresh_row ())
               in
               t := Table.write old ~deleted:(Array.of_list deleted) ~added;
               let model =
                 Array.append
                   (Array.of_list
                      (List.filteri (fun i _ -> not (List.mem i deleted)) (Array.to_list old_rows)))
                   added
               in
               let rows = Table.rows !t in
               if not (segments_ok !t && Array.length rows = Array.length model
                       && Array.for_all2 Tuple.equal rows model)
               then ok := false;
               Option.iter
                 (fun d ->
                   Domain.join d;
                   if not (whole_agrees old && probe_agrees !t) then ok := false)
                 reader
           | 2 -> if not (probe_agrees !t) then ok := false
           | _ -> if not (whole_agrees !t) then ok := false
         done;
         !ok))

(* Live words after [Gc.full_major], beyond [base]. *)
let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

let period_db n =
  let db = Database.create ~tmin:0 ~tmax:5000 () in
  Database.add_period_table db "w"
    (Table.make w_schema
       (List.init n (fun i ->
            Tuple.make
              [ Value.Str (string_of_int (i mod 97)); Value.Int i; Value.Int (i + 9) ])));
  db

let insert_one db i =
  Database.append_rows db "w"
    [ Tuple.make [ Value.Str "n"; Value.Int i; Value.Int (i + 3) ] ]

(* a burst of unread writes keeps its segments, not a chain of values *)
let test_no_pinned_chain () =
  let l0 = live_words () in
  let db = period_db 2_000 in
  ignore (Idx_cache.get db "w");
  insert_one db 0;
  ignore (Idx_cache.get db "w");
  let one = live_words () - l0 in
  for i = 1 to 300 do
    insert_one db i
  done;
  let burst = live_words () - l0 in
  check
    (Printf.sprintf "300 unread INSERTs: %d live words, one INSERT and a read: %d"
       burst one)
    true
    (burst <= 3 * one);
  ignore (Sys.opaque_identity db)

(* finalise the current value's columnar image, which belongs to its
   one segment; the table value itself is not kept *)
let[@inline never] watch_columnar db (flag : bool ref) =
  Gc.finalise (fun _ -> flag := true) (Table.columnar (Database.find db "w"))

(* [write db] with the value before it pinned: the pin keeps the
   segment the write replaced *)
let[@inline never] pinned_write db gone write =
  let pin = Database.pin db in
  write db;
  Gc.full_major ();
  check "a pinned older value keeps the replaced segment" false !gone;
  check_int "and reads its rows" 100 (Table.cardinality (Database.find pin "w"))

(* A merge (100 rows, then 60: 100 <= 2 x 60) and a compaction (every
   row deleted) replace the first segment: once no value holds it, it is
   collected. *)
let test_replaced_segments_collected () =
  List.iter
    (fun (what, write, rows) ->
      let db = period_db 100 in
      let gone = ref false in
      watch_columnar db gone;
      pinned_write db gone write;
      Gc.full_major ();
      check (what ^ ": the replaced segment is collected") true !gone;
      let t = Database.find db "w" in
      check_int (what ^ ": rows") rows (Table.cardinality t);
      check_int (what ^ ": segments") (min rows 1) (Array.length (Table.layout t)))
    [
      ( "merge",
        (fun db ->
          Database.append_rows db "w"
            (List.init 60 (fun i -> Tuple.make [ Value.Str "n"; Value.Int i; Value.Int (i + 3) ]))),
        160 );
      ("compaction", (fun db -> Database.replace_rows db "w" ~deleted:(Array.init 100 Fun.id) [||]), 0);
    ]

(* an AS OF read over the middleware, index on and off; with [~count]
   the read is a count over the stab and a data-column filter in one
   selection, whose probe is not exact and whose consumer reads no
   column: a read over several segments gathers only the filter's
   column *)
let as_of_pair ?(count = false) db t =
  let sql =
    if count then
      Printf.sprintf
        "SELECT count(*) AS c FROM w WHERE b <= %d AND e > %d AND name <> '3'" t t
    else Printf.sprintf "SEQ VT AS OF %d (SELECT name FROM w WHERE name <> '3')" t
  in
  (M.query (M.create ~db ()) sql, M.query (M.create ~index:false ~db ()) sql)

(* write/read pairs after the index is built probe it and scan the
   tail of fresh rows, skipping deleted ones: no index is built, and the
   rows equal a scan's *)
let test_delta_reads_build_nothing () =
  let db = period_db 2_000 in
  ignore (Idx_cache.get db "w");
  let built () = (Tkr_idx.Stats.snapshot ()).Tkr_idx.Stats.s_built in
  let b0 = built () in
  let m = M.create ~db () in
  for k = 1 to 40 do
    (match k mod 4 with
    | 0 -> ignore (M.execute m (Printf.sprintf "DELETE FROM w WHERE b = %d" (k * 13)))
    | 1 ->
        ignore
          (M.execute m
             (Printf.sprintf
                "UPDATE w FOR PORTION OF PERIOD FROM %d TO %d SET name = 'u' WHERE b = %d"
                (k * 7) ((k * 7) + 3) (k * 7)))
    | _ -> insert_one db (k * 11));
    let idx, scan = as_of_pair db (k * 11 + 1) in
    check (Printf.sprintf "read %d: index = scan" k) true (byte_identical idx scan);
    let idx, scan = as_of_pair ~count:true db (k * 11 + 1) in
    check (Printf.sprintf "count %d: index = scan" k) true (byte_identical idx scan)
  done;
  check_int "40 write/read pairs build no index" 0 (built () - b0);
  check_int "the table kept its writes" 2_020 (Table.cardinality (Database.find db "w"))

(* EXPLAIN ANALYZE: an index select over several segments reports how
   many it read and the tail rows it scanned; over one whole index it
   prints as before *)
let test_explain_delta () =
  let db = period_db 100 in
  ignore (Idx_cache.get db "w");
  let m = M.create ~db () in
  let q = "EXPLAIN ANALYZE (SEQ VT AS OF 50 (SELECT name FROM w))" in
  let select_line () =
    let text = match M.execute m q with M.Done t -> t | M.Rows _ -> "" in
    match
      List.find_opt (fun l -> contains l "access=index") (String.split_on_char '\n' text)
    with
    | Some l -> l
    | None -> Alcotest.fail "no index select in the trace"
  in
  check "one segment: no segments attribute" false (contains (select_line ()) "segments=");
  insert_one db 48;
  insert_one db 49;
  let l = select_line () in
  check ("two INSERTs: " ^ l) true
    (contains l "rows_in=102  access=index  candidates=11  segments=2  scanned=2  conjuncts=2");
  ignore (Idx_cache.get db "w");
  check "over the whole index: no segments attribute" false
    (contains (select_line ()) "segments=")

(* Major-heap words (promoted or allocated there directly) of a one-row
   INSERT and an AS OF read on a 20k-row table whose images are built.
   The INSERT appends a one-row segment and the read probes the built
   index, scans that segment and gathers its 10 candidates, all in the
   minor heap: 0 words.  Copying the row array on the INSERT cost
   20,002 words; deriving the whole columnar image and index per read,
   186,024. *)
let test_insert_read_major_words () =
  let db = period_db 20_000 in
  ignore (Idx_cache.get db "w");
  let m = M.create ~db () in
  let p = M.prepare m "SEQ VT AS OF 4000 (SELECT name FROM w)" in
  ignore (M.run_prepared m p);
  let major () =
    let _, _, w = Gc.counters () in
    w
  in
  let w0 = major () in
  insert_one db 3_998;
  let rows = M.run_prepared m p in
  let words = int_of_float (major () -. w0) in
  check_int "the read sees the new row" 10 (Table.cardinality rows);
  check (Printf.sprintf "%d major words <= 2,500" words) true (words <= 2_500)

(* Words of an AS OF [count( * ) ... GROUP BY] a text column read over
   a built index and a one-row tail segment, with 1,001 of 2,001 rows
   alive at the point and 8 groups.  The exact probe gathers only the
   text column of the candidates (its 1,001 cells are the major-heap
   words), and γ folds into typed slots in a keyset sized for its
   groups: 1,002 major and 1,449 minor words with segments (1,003 and
   1,352 when reads went through a base and a delta), against 7,013 and
   16,236 when the probe gathered every column, the timeslice was
   re-filtered and γ stepped boxed accumulators over a keyset sized for
   its rows.  Allocation
   counts repeat exactly from run to run; the bounds are 1.25x of the
   base-and-delta design's. *)
let test_delta_group_read_words () =
  let db = Database.create ~tmin:0 ~tmax:5000 () in
  Database.add_period_table db "w"
    (Table.make w_schema
       (List.init 2_000 (fun i ->
            Tuple.make
              [ Value.Str (string_of_int (i mod 7)); Value.Int i; Value.Int (i + 1_000) ])));
  ignore (Idx_cache.get db "w");
  let m = M.create ~db () in
  let p = M.prepare m "SEQ VT AS OF 1500 (SELECT name, count(*) AS n FROM w GROUP BY name)" in
  ignore (M.run_prepared m p);
  insert_one db 1_499;
  ignore (M.run_prepared m p);
  let minor0 = Gc.minor_words () and _, _, major0 = Gc.counters () in
  let rows = M.run_prepared m p in
  let minor = int_of_float (Gc.minor_words () -. minor0)
  and major = (let _, _, w = Gc.counters () in int_of_float (w -. major0)) in
  check_int "seven titles and the new row's" 8 (Table.cardinality rows);
  check (Printf.sprintf "%d major words <= 1,250" major) true (major <= 1_250);
  check (Printf.sprintf "%d minor words <= 1,690" minor) true (minor <= 1_690)

let suite =
  ( "temporal indexes (Tkr_idx)",
    [
      Alcotest.test_case "interval probe vs brute force" `Quick
        test_interval_probe;
      prop_probe_vs_brute;
      Alcotest.test_case "probe bounds: exact shapes" `Quick test_bounds_exact;
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
      prop_build_vs_merge_sort;
      Alcotest.test_case "index build edge cases" `Quick test_build_edges;
      prop_derived_images;
      prop_successor_chains;
      Alcotest.test_case "unread writes pin no chain of values" `Quick
        test_no_pinned_chain;
      Alcotest.test_case "replaced segments are collected unless pinned" `Quick
        test_replaced_segments_collected;
      Alcotest.test_case "reads through a delta build nothing" `Quick
        test_delta_reads_build_nothing;
      Alcotest.test_case "EXPLAIN ANALYZE reports delta reads" `Quick
        test_explain_delta;
      Alcotest.test_case "one-row INSERT and AS OF read: major words" `Quick
        test_insert_read_major_words;
      Alcotest.test_case "AS OF GROUP BY through a delta: words" `Quick
        test_delta_group_read_words;
    ] )

(* Observability: metrics/span arithmetic and join-strategy reporting in
   EXPLAIN ANALYZE. *)

module Metrics = Tkr_obs.Metrics
module Trace = Tkr_obs.Trace
module Clock = Tkr_obs.Clock
module M = Tkr_middleware.Middleware
module Database = Tkr_engine.Database
module Expr = Tkr_relation.Expr

let contains hay needle =
  let n = String.length hay and m = String.length needle in
  let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
  go 0

(* --- (a) counter / timer / histogram / span arithmetic --- *)

let test_metrics () =
  let r = Metrics.create ~clock:Clock.frozen () in
  let c = Metrics.counter r "rows" in
  Metrics.incr c;
  Metrics.add c 41;
  Alcotest.(check int) "counter" 42 (Metrics.value c);
  Alcotest.(check int) "find-or-create" 42 Metrics.(value (counter r "rows"));
  let t = Metrics.timer r "t" in
  Metrics.record_ns t 5L;
  Metrics.record_ns t 7L;
  Alcotest.(check int) "timer samples" 2 (Metrics.timer_samples t);
  Alcotest.(check int64) "timer total" 12L (Metrics.timer_total_ns t);
  let h = Metrics.histogram ~bounds:[| 10; 100 |] r "h" in
  List.iter (Metrics.observe h) [ 5; 50; 5000 ];
  Alcotest.(check int) "histogram n" 3 (Metrics.histogram_observations h);
  Alcotest.(check int) "histogram sum" 5055 (Metrics.histogram_sum h);
  Alcotest.(check (array int)) "buckets" [| 1; 1; 1 |]
    (Metrics.histogram_buckets h);
  let g = Metrics.gauge r "depth" in
  Metrics.set g 7;
  Metrics.gauge_add g 5;
  Metrics.gauge_add g (-2);
  Alcotest.(check int) "gauge level" 10 (Metrics.gauge_value g);
  Alcotest.(check int) "gauge find-or-create" 10
    Metrics.(gauge_value (gauge r "depth"));
  (match Metrics.view r "depth" with
  | Some (Metrics.V_gauge 10) -> ()
  | _ -> Alcotest.fail "gauge view");
  Metrics.reset r;
  Alcotest.(check int) "reset counter" 0 (Metrics.value c);
  Alcotest.(check int) "reset timer" 0 (Metrics.timer_samples t);
  Alcotest.(check int) "reset gauge" 0 (Metrics.gauge_value g);
  Alcotest.(check (list string))
    "names survive reset"
    [ "rows"; "t"; "h"; "depth" ]
    (Metrics.names r)

(* quantile estimation at the degenerate ends: nothing observed, a
   single populated bucket, and a boundless histogram *)
let test_quantile_edges () =
  let r = Metrics.create () in
  let h = Metrics.histogram ~bounds:[| 8 |] r "one_bucket" in
  Alcotest.(check int) "empty histogram" 0 (Metrics.histogram_quantile h 0.5);
  Metrics.observe h 3;
  (* the single observation sits in (0,8]; rank q interpolates inside *)
  Alcotest.(check int) "single obs p50" 4 (Metrics.histogram_quantile h 0.5);
  Alcotest.(check int) "single obs p100" 8 (Metrics.histogram_quantile h 1.0);
  (* out-of-range q clamps rather than faulting *)
  Alcotest.(check int) "q below 0 clamps" 0 (Metrics.histogram_quantile h (-1.));
  Alcotest.(check int) "q above 1 clamps" 8 (Metrics.histogram_quantile h 2.);
  (* only the overflow bucket populated: report the largest finite bound *)
  let ho = Metrics.histogram ~bounds:[| 8 |] r "overflow_only" in
  Metrics.observe ho 99;
  Alcotest.(check int) "overflow clamps" 8 (Metrics.histogram_quantile ho 0.5)

let test_spans () =
  let obs = Trace.create ~clock:Clock.frozen () in
  let result =
    Trace.with_span obs "root" (fun sp ->
        Trace.set_int sp "rows_in" 4;
        let x = Trace.with_span obs "child" (fun sp' ->
            Trace.set_str sp' "strategy" "hash";
            3)
        in
        Trace.set_int sp "rows_out" (x + 4);
        x)
  in
  Alcotest.(check int) "body result" 3 result;
  match Trace.roots obs with
  | [ root ] ->
      Alcotest.(check string) "root name" "root" (Trace.name root);
      Alcotest.(check int64) "frozen elapsed" 0L (Trace.elapsed_ns root);
      Alcotest.(check int) "one child" 1 (List.length (Trace.children root));
      (match Trace.find_attr root "rows_out" with
      | Some (Trace.Int 7) -> ()
      | _ -> Alcotest.fail "rows_out attr");
      (* insertion order: rows_in before rows_out *)
      Alcotest.(check (list string)) "attr order" [ "rows_in"; "rows_out" ]
        (List.map fst (Trace.attrs root));
      let child = List.hd (Trace.children root) in
      (match Trace.find_attr child "strategy" with
      | Some (Trace.Str "hash") -> ()
      | _ -> Alcotest.fail "strategy attr")
  | roots -> Alcotest.failf "expected one root, got %d" (List.length roots)

let test_disabled () =
  (* the disabled collector runs the body with no span and records nothing *)
  let r =
    Trace.with_span Trace.disabled "op" (fun sp ->
        Alcotest.(check bool) "no span" true (sp = None);
        Trace.set_int sp "rows_out" 1;
        17)
  in
  Alcotest.(check int) "result" 17 r;
  Alcotest.(check bool) "not enabled" false (Trace.enabled Trace.disabled)

(* --- (b) EXPLAIN ANALYZE reports the join strategy --- *)

let plain_m () =
  let m = M.create () in
  ignore
    (M.execute_script m
       {|
       CREATE TABLE r (a int, x int);
       INSERT INTO r VALUES (1, 10), (2, 20);
       CREATE TABLE s (a int, y int);
       INSERT INTO s VALUES (1, 100), (3, 300);
     |});
  m

let test_join_strategy () =
  let m = plain_m () in
  (* sanity: the strategy reported must mirror Expr.equi_keys *)
  let equi = Expr.Cmp (Expr.Eq, Expr.Col 0, Expr.Col 2) in
  let theta = Expr.Cmp (Expr.Lt, Expr.Col 0, Expr.Col 2) in
  Alcotest.(check bool) "equi_keys finds keys" true
    (fst (Expr.equi_keys ~left_arity:2 equi) <> []);
  Alcotest.(check bool) "equi_keys finds none" true
    (fst (Expr.equi_keys ~left_arity:2 theta) = []);
  let out = M.explain_analyze m "SELECT * FROM r JOIN s ON r.a = s.a" in
  Alcotest.(check bool) "hash join reported" true
    (contains out "strategy=hash");
  Alcotest.(check bool) "hash join only" false
    (contains out "strategy=nested_loop");
  let out = M.explain_analyze m "SELECT * FROM r JOIN s ON r.a < s.a" in
  Alcotest.(check bool) "nested loop reported" true
    (contains out "strategy=nested_loop");
  Alcotest.(check bool) "nested loop only" false
    (contains out "strategy=hash")

(* A vec join over more than 256 rows allocates its output columns
   directly in the major heap; the span's [gc_major_words] must see them
   between collections. *)
let test_explain_major_words () =
  let m = M.create ~engine:M.Vec () in
  let values = String.concat ", " (List.init 400 (Printf.sprintf "(%d)")) in
  ignore
    (M.execute_script m
       (Printf.sprintf
          "CREATE TABLE r (a int); INSERT INTO r VALUES %s;\n\
           CREATE TABLE s (a int); INSERT INTO s VALUES %s;"
          values values));
  let out = M.explain_analyze m "SELECT r.a, s.a FROM r JOIN s ON r.a = s.a" in
  let join_line =
    List.find_opt
      (fun l -> contains l "join" && contains l "engine=vec")
      (String.split_on_char '\n' out)
  in
  let major =
    match join_line with
    | None -> Alcotest.failf "no vec join span in:@.%s" out
    | Some l ->
        List.find_map
          (fun kv ->
            match String.split_on_char '=' kv with
            | [ "gc_major_words"; v ] -> float_of_string_opt v
            | _ -> None)
          (String.split_on_char ' ' l)
  in
  match major with
  | Some w -> Alcotest.(check bool) "join gc_major_words > 0" true (w > 0.)
  | None -> Alcotest.failf "no gc_major_words on the join span:@.%s" out

let test_explain_statement () =
  (* EXPLAIN ANALYZE as a SQL statement, through execute; the tree carries
     rows in/out and the coalesce internals on the Figure 1b query *)
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
  match
    M.execute m
      "EXPLAIN ANALYZE (SEQ VT (SELECT count(*) AS cnt FROM works WHERE \
       skill = 'SP') ORDER BY vt_begin)"
  with
  | M.Rows _ -> Alcotest.fail "EXPLAIN ANALYZE must return a report"
  | M.Done out ->
      List.iter
        (fun needle ->
          Alcotest.(check bool) needle true (contains out needle))
        [
          "coalesce"; "groups="; "segments="; "rows_in="; "rows_out=";
          "split_agg"; "scan(works)"; "result: 7 rows"; "execute";
        ]

let suite =
  ( "observability",
    [
      Alcotest.test_case "metrics arithmetic" `Quick test_metrics;
      Alcotest.test_case "quantile edge cases" `Quick test_quantile_edges;
      Alcotest.test_case "span trees" `Quick test_spans;
      Alcotest.test_case "disabled collector" `Quick test_disabled;
      Alcotest.test_case "join strategy in EXPLAIN ANALYZE" `Quick
        test_join_strategy;
      Alcotest.test_case "EXPLAIN ANALYZE statement" `Quick
        test_explain_statement;
      Alcotest.test_case "EXPLAIN ANALYZE major words (vec join)" `Quick
        test_explain_major_words;
    ] )

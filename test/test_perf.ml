(* The perf layer: the JSON codec, OpenMetrics golden output, GC counter
   monotonicity across a traced query, histogram quantile interpolation
   and the environment metadata benchmark reports carry. *)

module Json = Tkr_obs.Json
module Trace = Tkr_obs.Trace
module Metrics = Tkr_obs.Metrics
module Openmetrics = Tkr_obs.Openmetrics
module Env = Tkr_perf.Env
module M = Tkr_middleware.Middleware

(* --- JSON parser (the reader side of the schema) --- *)

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("s", Json.Str "a \"quoted\"\nline\twith\\escapes");
        ("i", Json.Int (-42));
        ("f", Json.Float 1.5);
        ("b", Json.Bool true);
        ("n", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.Obj []; Json.List [] ]);
      ]
  in
  Alcotest.(check bool)
    "roundtrip" true
    (Json.of_string (Json.to_string doc) = doc);
  Alcotest.(check bool)
    "ints stay ints" true
    (Json.of_string "7" = Json.Int 7);
  Alcotest.(check bool)
    "floats parse" true
    (Json.of_string "7.25" = Json.Float 7.25);
  Alcotest.(check bool)
    "whitespace tolerated" true
    (Json.of_string "  { \"a\" : [ 1 , 2 ] }  "
    = Json.Obj [ ("a", Json.List [ Json.Int 1; Json.Int 2 ]) ]);
  let fails s =
    match Json.of_string s with
    | exception Json.Parse_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "truncated fails" true (fails "{\"a\":");
  Alcotest.(check bool) "garbage tail fails" true (fails "1 x")

(* \u escapes take exactly four hex digits; a surrogate pair is one
   4-byte UTF-8 sequence and a lone surrogate is an error *)
let test_json_unicode_escapes () =
  let str s = Json.of_string ("\"" ^ s ^ "\"") in
  let decodes s expected =
    Alcotest.(check string) s expected
      (match str s with Json.Str v -> v | _ -> Alcotest.fail "not a string")
  in
  let rejects s =
    match str s with
    | exception Json.Parse_error _ -> ()
    | _ -> Alcotest.failf "%s: expected a parse error" s
  in
  decodes {|\u0041|} "A";
  decodes {|\u00e9|} "\xc3\xa9";
  decodes {|\u20AC|} "\xe2\x82\xac";
  decodes {|\u0000|} "\000";
  decodes {|\ud83d\ude00|} "\xf0\x9f\x98\x80";
  decodes {|\uD834\uDD1E|} "\xf0\x9d\x84\x9e";
  decodes {|a\u0022b\/c|} "a\"b/c";
  rejects {|\u00_4|};
  rejects {|\u+041|};
  rejects {|\u12G4|};
  rejects {|\u12|};
  rejects {|\ud83d|};
  rejects {|\ud83dx|};
  rejects {|\ud83d\u0041|};
  rejects {|\ud83d\ud83d|};
  rejects {|\ude00|};
  rejects {|\ude00\ud83d|};
  rejects {|\x41|}

(* integers are exact at both ends of the int range and become floats
   only past it; the number grammar is JSON's *)
let test_json_numbers () =
  let is v s = Alcotest.(check bool) s true (Json.of_string s = v) in
  is (Json.Int max_int) (string_of_int max_int);
  is (Json.Int min_int) (string_of_int min_int);
  is (Json.Int 0) "-0";
  is (Json.Float 4611686018427387904.) "4611686018427387904";
  is (Json.Float (-4611686018427387905.)) "-4611686018427387905";
  is (Json.Float 1e300) "1e300";
  is (Json.Float (-2.5e-3)) "-2.5E-3";
  is (Json.List [ Json.Int 1; Json.Float 0.5 ]) "[1,0.5]";
  List.iter
    (fun s ->
      match Json.of_string s with
      | exception Json.Parse_error _ -> ()
      | _ -> Alcotest.failf "%s: expected a parse error" s)
    [ "-"; "1."; ".5"; "1e"; "1e+"; "--1"; "1-2"; "0x10"; "1_000"; "+1" ];
  (* nesting is bounded: a deep document is a parse error, not a crash *)
  match Json.of_string (String.make 100_000 '[') with
  | exception Json.Parse_error _ -> ()
  | _ -> Alcotest.fail "expected a parse error"

(* --- OpenMetrics golden --- *)

let test_openmetrics_golden () =
  let r = Metrics.create () in
  Metrics.add (Metrics.counter r "rows scanned") 42;
  let h = Metrics.histogram ~bounds:[| 10; 100 |] r "latency_us" in
  List.iter (Metrics.observe h) [ 5; 50; 5000 ];
  let expected =
    "# TYPE rows_scanned_total counter\n\
     rows_scanned_total 42\n\
     # TYPE latency_us histogram\n\
     latency_us_bucket{le=\"10\"} 1\n\
     latency_us_bucket{le=\"100\"} 2\n\
     latency_us_bucket{le=\"+Inf\"} 3\n\
     latency_us_sum 5055\n\
     latency_us_count 3\n\
     # EOF\n"
  in
  Alcotest.(check string) "golden" expected (Openmetrics.of_metrics r)

(* exposition-grammar edges: name sanitization, label escaping, and the
   gauge-family renderer the exporters are built on *)
let test_openmetrics_escaping () =
  Alcotest.(check string)
    "spaces and dashes" "rows_scanned_per_sec"
    (Openmetrics.sanitize "rows scanned-per.sec");
  Alcotest.(check string)
    "leading digit prefixed" "_9lives" (Openmetrics.sanitize "9lives");
  Alcotest.(check string)
    "colon kept" "ns:sub_total" (Openmetrics.sanitize "ns:sub total");
  Alcotest.(check string)
    "label escapes" "a\\\\b\\\"c\\nd"
    (Openmetrics.escape_label "a\\b\"c\nd");
  Alcotest.(check string)
    "gauge family golden"
    "# TYPE g gauge\n\
     # HELP g demo\n\
     g{k=\"v\\\"w\"} 1.5\n\
     g 2\n"
    (Openmetrics.gauge ~help:"demo" "g" [ ([ ("k", "v\"w") ], 1.5); ([], 2.0) ])

(* --- GC profiling across a traced query --- *)

let gc_float sp key =
  match Trace.find_attr sp key with
  | Some (Trace.Float f) -> f
  | Some (Trace.Int i) -> float_of_int i
  | _ -> Alcotest.fail (Printf.sprintf "span %s: missing %s" (Trace.name sp) key)

let test_gc_monotone () =
  let m = M.create () in
  Tkr_engine.Database.set_time_bounds (M.database m) ~tmin:0 ~tmax:24;
  ignore
    (M.execute_script m
       {|
       CREATE TABLE works (name text, skill text, b int, e int) PERIOD (b, e);
       INSERT INTO works VALUES
         ('Ann', 'SP', 3, 10), ('Joe', 'NS', 8, 16),
         ('Sam', 'SP', 8, 16), ('Ann', 'SP', 18, 20);
     |});
  let p = M.prepare m "SEQ VT (SELECT count(*) AS cnt FROM works)" in
  let obs = Trace.create ~gc:true () in
  ignore (M.run_prepared ~obs m p);
  let roots = Trace.roots obs in
  Alcotest.(check bool) "has roots" true (roots <> []);
  (* every span reports the GC attrs, allocations are non-negative, and a
     parent's delta covers the sum of its children's (the counters are
     monotone snapshots of one global allocation counter) *)
  List.iter
    (fun root ->
      Trace.iter
        (fun sp ->
          let minor = gc_float sp Trace.gc_minor_words in
          Alcotest.(check bool) "minor_words >= 0" true (minor >= 0.);
          Alcotest.(check bool)
            "major_collections >= 0" true
            (gc_float sp Trace.gc_major_collections >= 0.);
          let child_sum =
            List.fold_left
              (fun acc c -> acc +. gc_float c Trace.gc_minor_words)
              0. (Trace.children sp)
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s covers children (%g >= %g)" (Trace.name sp)
               minor child_sum)
            true (minor >= child_sum))
        root)
    roots;
  (* the root of a real query allocates *something* *)
  Alcotest.(check bool)
    "root allocates" true
    (List.exists (fun r -> gc_float r Trace.gc_minor_words > 0.) roots)

(* --- histogram quantiles --- *)

let test_histogram_quantile () =
  let r = Metrics.create () in
  let h = Metrics.histogram ~bounds:[| 10; 100; 1000 |] r "h" in
  Alcotest.(check int) "empty" 0 (Metrics.histogram_quantile h 0.5);
  (* 100 equal observations in the (10,100] bucket: interpolation would
     place the median at the bucket midpoint, the observed range pins it
     to the value itself *)
  for _ = 1 to 100 do
    Metrics.observe h 50
  done;
  Alcotest.(check int) "p50 midpoint" 50 (Metrics.histogram_quantile h 0.5);
  Alcotest.(check int) "p100 top" 50 (Metrics.histogram_quantile h 1.0);
  (* overflow ranks report the largest observation *)
  let r2 = Metrics.create () in
  let h2 = Metrics.histogram ~bounds:[| 10; 100 |] r2 "h2" in
  List.iter (Metrics.observe h2) [ 5; 5000; 6000; 7000 ];
  Alcotest.(check int) "overflow clamps" 7000 (Metrics.histogram_quantile h2 0.9);
  (* rank 0.4 of the single observation in (0,10] interpolates to 4,
     below the smallest observation: it reads 5 *)
  Alcotest.(check int) "low rank in first bucket" 5
    (Metrics.histogram_quantile h2 0.1)

(* --- env metadata --- *)

let test_env () =
  let e = Env.capture () in
  Alcotest.(check string) "ocaml version" Sys.ocaml_version e.Env.ocaml_version;
  Alcotest.(check int) "word size" Sys.word_size e.Env.word_size;
  Alcotest.(check bool) "hostname nonempty" true (e.Env.hostname <> "");
  (* the JSON form benchmark reports carry: every field, the dirty-tree
     flag included *)
  let j = Env.to_json { e with Env.dirty = true } in
  Alcotest.(check bool)
    "git sha" true
    (Json.member "git_sha" j = Some (Json.Str e.Env.git_sha));
  Alcotest.(check bool)
    "dirty flag" true
    (Json.member "git_dirty" j = Some (Json.Bool true));
  Alcotest.(check bool)
    "word size" true
    (Json.member "word_size" j = Some (Json.Int Sys.word_size))

let suite =
  ( "perf",
    [
      Alcotest.test_case "json parser roundtrip" `Quick test_json_roundtrip;
      Alcotest.test_case "openmetrics golden" `Quick test_openmetrics_golden;
      Alcotest.test_case "openmetrics escaping and gauges" `Quick
        test_openmetrics_escaping;
      Alcotest.test_case "gc counters monotone" `Quick test_gc_monotone;
      Alcotest.test_case "histogram quantiles" `Quick test_histogram_quantile;
      Alcotest.test_case "env metadata" `Quick test_env;
      Alcotest.test_case "json unicode escapes: strict, surrogate pairs" `Quick
        test_json_unicode_escapes;
      Alcotest.test_case "json numbers: exact int range" `Quick
        test_json_numbers;
    ] )

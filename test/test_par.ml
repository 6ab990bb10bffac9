(* The parallel execution engine (Tkr_par): pool combinator semantics,
   boundary duplication of the chunked interval join, byte-identity of the
   pooled temporal operators, and — as a qcheck property — determinism of
   full pooled plans against the serial engine. *)

open Fixtures
module Value = Tkr_relation.Value
module Schema = Tkr_relation.Schema
module Tuple = Tkr_relation.Tuple
module Algebra = Tkr_relation.Algebra
module Agg = Tkr_relation.Agg
module Table = Tkr_engine.Table
module Database = Tkr_engine.Database
module Exec = Tkr_engine.Exec
module Ops = Tkr_engine.Ops
module Interval_join = Tkr_engine.Interval_join
module Pool = Tkr_par.Pool
module Rewriter = Tkr_sqlenc.Rewriter
module W = Tkr_workload.Employees
module PE = Tkr_sqlenc.Period_enc.Make (D24)

let check = Alcotest.(check bool)

let same_rows a b =
  let ra = Table.rows a and rb = Table.rows b in
  Array.length ra = Array.length rb && Array.for_all2 Tuple.equal ra rb

(* ---- pool combinators ---- *)

let test_pool_basics () =
  Pool.with_pool ~jobs:4 @@ fun pool ->
  let pool = Option.get pool in
  check "pool reports its size" true (Pool.jobs pool = 4);
  let tasks = Array.init 37 (fun i () -> i * i) in
  let results, stats = Pool.run pool tasks in
  check "run returns results in task order" true
    (results = Array.init 37 (fun i -> i * i));
  check "stats counts one chunk per task" true (stats.Pool.chunks = 37);
  check "per-domain attribution covers all chunks" true
    (List.fold_left (fun acc (_, c, _) -> acc + c) 0 stats.Pool.domains = 37)

let test_pool_exception () =
  Pool.with_pool ~jobs:3 @@ fun pool ->
  let pool = Option.get pool in
  let tasks =
    Array.init 8 (fun i () -> if i = 5 then failwith "task 5 exploded" else i)
  in
  check "first task exception is re-raised in the caller" true
    (match Pool.run pool tasks with
    | _ -> false
    | exception Failure m -> m = "task 5 exploded");
  (* the pool survives a failed batch *)
  let results, _ = Pool.run pool (Array.init 4 (fun i () -> i + 1)) in
  check "pool is reusable after an exception" true (results = [| 1; 2; 3; 4 |])

let test_pool_jobs1_inline () =
  let pool = Pool.create ~jobs:1 () in
  let input = Array.init 100 (fun i -> i) in
  let results, stats = Pool.map_array pool (fun x -> x * 3) input in
  check "jobs=1 map_array = Array.map" true
    (results = Array.map (fun x -> x * 3) input);
  check "jobs=1 never steals" true (stats.Pool.steals = 0);
  Pool.shutdown pool

let test_with_pool () =
  check "with_pool jobs<=1 takes the serial path" true
    (Pool.with_pool ~jobs:1 Option.is_none);
  check "with_pool jobs=0 takes the serial path" true
    (Pool.with_pool ~jobs:0 Option.is_none);
  check "with_pool jobs=2 builds a 2-domain pool" true
    (Pool.with_pool ~jobs:2 (fun p -> Pool.jobs (Option.get p) = 2))

let test_ordered_combinators () =
  Pool.with_pool ~jobs:3 @@ fun pool ->
  let pool = Option.get pool in
  let xs = List.init 53 (fun i -> i) in
  let mapped, _ = Pool.map_list ~chunks:7 pool (fun x -> x * 2) xs in
  check "map_list preserves element order" true
    (mapped = List.map (fun x -> x * 2) xs);
  let ranges, stats =
    Pool.concat_map_ranges ~chunks:4 pool ~n:10 (fun ~lo ~hi ->
        List.init (hi - lo) (fun k -> lo + k))
  in
  check "concat_map_ranges covers [0, n) in order" true
    (ranges = List.init 10 Fun.id);
  check "concat_map_ranges runs the requested chunks" true
    (stats.Pool.chunks = 4);
  let empty, _ = Pool.concat_map_ranges ~chunks:8 pool ~n:0 (fun ~lo ~hi ->
      List.init (hi - lo) (fun k -> lo + k))
  in
  check "n=0 yields the empty list" true (empty = []);
  let over, _ = Pool.concat_map_ranges ~chunks:32 pool ~n:3 (fun ~lo ~hi ->
      List.init (hi - lo) (fun k -> lo + k))
  in
  check "chunks > n still covers the range exactly once" true
    (over = [ 0; 1; 2 ])

let test_shutdown_degrades_gracefully () =
  let pool = Pool.create ~jobs:4 () in
  Pool.shutdown pool;
  Pool.shutdown pool;
  (* idempotent *)
  let results, _ = Pool.run pool (Array.init 6 (fun i () -> i * 10)) in
  check "a shut-down pool drains batches on the caller" true
    (results = Array.init 6 (fun i -> i * 10))

(* ---- interval join: boundary duplication / dedup ---- *)

let ij_schema =
  Schema.make
    [
      Schema.attr "k" Value.TStr;
      Schema.attr "vt_b" Value.TInt;
      Schema.attr "vt_e" Value.TInt;
    ]

let mk rows =
  Table.make ij_schema
    (List.map
       (fun (k, b, e) -> Tuple.make [ Value.Str k; Value.Int b; Value.Int e ])
       rows)

let join ?pool ?chunks l r =
  Interval_join.overlap_join ?pool ?chunks ~left_keys:[ 0 ] ~right_keys:[ 0 ]
    l r

(* parallel output must be bag-equal to the serial sweep, and byte-identical
   across every pool size (chunking never depends on jobs) *)
let assert_par_matches_serial name l r ~chunks =
  let serial = join l r in
  let outputs =
    List.map
      (fun jobs ->
        let pool = Pool.create ~jobs () in
        Fun.protect
          ~finally:(fun () -> Pool.shutdown pool)
          (fun () -> join ~pool ~chunks l r))
      [ 1; 2; 3; 8 ]
  in
  List.iteri
    (fun i out ->
      check
        (Printf.sprintf "%s: parallel bag-equal to serial (variant %d)" name i)
        true
        (Table.equal_bag serial out))
    outputs;
  match outputs with
  | first :: rest ->
      List.iteri
        (fun i out ->
          check
            (Printf.sprintf "%s: identical rows at every pool size (%d)" name i)
            true (same_rows first out))
        rest
  | [] -> assert false

let test_ij_chunk_boundaries () =
  (* span [0, 16); chunks=4 cuts at 0/4/8/12/16.  Overlap starts land
     exactly on the cuts, so the emit-once rule (owner = chunk containing
     max(b1, b2)) is exercised on its boundary. *)
  let l = mk [ ("a", 0, 8); ("a", 4, 12); ("a", 8, 16) ] in
  let r = mk [ ("a", 0, 16); ("a", 8, 10); ("a", 12, 16) ] in
  assert_par_matches_serial "straddling boundaries" l r ~chunks:4;
  (* meeting intervals ([0,8) vs [8,10)) must not match at all *)
  let touch = join (mk [ ("a", 0, 8) ]) (mk [ ("a", 8, 10) ]) in
  check "adjacent intervals do not overlap" true (Table.cardinality touch = 0)

let test_ij_empty_chunks () =
  (* all activity in [0, 2) but an 8-way split of the span: most chunks
     hold no rows and must contribute nothing *)
  let l = mk [ ("a", 0, 2); ("a", 1, 2); ("b", 0, 1) ] in
  let r = mk [ ("a", 0, 1); ("a", 1, 2); ("b", 0, 2) ] in
  assert_par_matches_serial "mostly-empty chunks" l r ~chunks:8

let test_ij_single_tuple () =
  let l1 = mk [ ("a", 0, 100) ] in
  let r1 = mk [ ("a", 50, 60) ] in
  assert_par_matches_serial "single tuple each side" l1 r1 ~chunks:8;
  let rn = mk [ ("a", 0, 10); ("a", 20, 30); ("a", 40, 50); ("a", 90, 100) ] in
  assert_par_matches_serial "one long row vs many" l1 rn ~chunks:3;
  assert_par_matches_serial "empty right" l1 (Table.empty ij_schema) ~chunks:4

let test_ij_duplicates () =
  (* duplicate rows are real multiset members: every copy pairs *)
  let l = mk [ ("a", 0, 10); ("a", 0, 10); ("a", 5, 15) ] in
  let r = mk [ ("a", 5, 20); ("a", 5, 20) ] in
  let serial = join l r in
  check "duplicates multiply" true (Table.cardinality serial = 6);
  assert_par_matches_serial "duplicate rows" l r ~chunks:2

(* ---- pooled temporal operators: byte-identical to serial ---- *)

let test_ops_byte_identical () =
  let t = W.coalesce_input ~n:2_000 ~seed:7 ~tmax:200 in
  Pool.with_pool ~jobs:3 @@ fun pool ->
  check "coalesce: pooled rows byte-identical" true
    (same_rows (Ops.coalesce t) (Ops.coalesce ?pool t));
  check "split: pooled rows byte-identical" true
    (same_rows (Ops.split [ 0 ] t t) (Ops.split ?pool [ 0 ] t t));
  let aggs = [ { Algebra.func = Agg.Count_star; agg_name = "cnt" } ] in
  check "split_agg: pooled rows byte-identical" true
    (same_rows
       (Ops.split_agg ~group:[ 0 ] ~aggs ~gap:None t)
       (Ops.split_agg ?pool ~group:[ 0 ] ~aggs ~gap:None t));
  check "split_agg with gap: pooled rows byte-identical" true
    (same_rows
       (Ops.split_agg ~group:[] ~aggs ~gap:(Some (0, 200)) t)
       (Ops.split_agg ?pool ~group:[] ~aggs ~gap:(Some (0, 200)) t))

let test_encode_parallel () =
  let snap = NP.P.Snap.of_facts D24.domain works_schema works_facts in
  let serial = NP.P.encode snap in
  Pool.with_pool ~jobs:3 @@ fun pool ->
  check "encode: pooled normalization = serial encoding" true
    (NP.P.equal serial (NP.P.encode ?pool snap))

(* ---- qcheck: pooled full plans are byte-identical to serial ---- *)

let prop_parallel_plans_deterministic =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:80
       ~name:"random plan: pooled Exec rows = serial rows"
       Test_representation.arb
       (fun ((q, _tys), (wfacts, afacts)) ->
         let works_p = NP.P.of_facts works_schema wfacts in
         let assign_p = NP.P.of_facts assign_schema afacts in
         let db = Database.create ~tmin:0 ~tmax:24 () in
         Database.add_period_table db "works" (PE.to_table works_p);
         Database.add_period_table db "assign" (PE.to_table assign_p);
         let lookup = function
           | "works" -> works_schema
           | "assign" -> assign_schema
           | n -> raise (Schema.Unknown n)
         in
         let q' =
           Rewriter.rewrite ~options:Rewriter.optimized ~tmin:0 ~tmax:24
             ~lookup q
         in
         Pool.with_pool ~jobs:3 @@ fun pool ->
         same_rows (Exec.eval db q') (Exec.eval ?pool db q')))

let suite =
  ( "parallel engine (Tkr_par)",
    [
      Alcotest.test_case "pool: ordered run + stats" `Quick test_pool_basics;
      Alcotest.test_case "pool: exception propagation" `Quick
        test_pool_exception;
      Alcotest.test_case "pool: jobs=1 runs inline" `Quick
        test_pool_jobs1_inline;
      Alcotest.test_case "pool: with_pool serial fallback" `Quick
        test_with_pool;
      Alcotest.test_case "pool: ordered-merge combinators" `Quick
        test_ordered_combinators;
      Alcotest.test_case "pool: graceful after shutdown" `Quick
        test_shutdown_degrades_gracefully;
      Alcotest.test_case "interval join: chunk-boundary dedup" `Quick
        test_ij_chunk_boundaries;
      Alcotest.test_case "interval join: empty chunks" `Quick
        test_ij_empty_chunks;
      Alcotest.test_case "interval join: single-tuple inputs" `Quick
        test_ij_single_tuple;
      Alcotest.test_case "interval join: duplicate rows" `Quick
        test_ij_duplicates;
      Alcotest.test_case "operators: pooled = serial (byte-identical)" `Quick
        test_ops_byte_identical;
      Alcotest.test_case "encode: pooled = serial" `Quick test_encode_parallel;
      prop_parallel_plans_deterministic;
    ] )

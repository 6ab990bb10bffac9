(* Regenerates every table and figure of the paper's evaluation section
   (Section 10) on the synthetic workloads, plus the qualitative Table 1.

   Usage: experiments [fig1|table1|table2|fig5|table3emp|table3tpc|ablation|
                       tourism|all]
          experiments wire
          experiments --check

   [wire] is not a paper figure: it times the serve wire codec on one
   1,000-row, 5-column result frame.

   [--check] turns the paper's performance claims into same-process
   assertions (see [check] below) and exits 1 if any fails.

   Absolute numbers differ from the paper (different hardware, a from-
   scratch in-memory engine, scaled datasets); the comparisons reproduce
   the paper's *shapes*: who wins, by what order of magnitude, and where
   the bugs appear. *)

module M = Tkr_middleware.Middleware
module B = Tkr_baseline.Baseline
module W = Tkr_workload.Employees
module T = Tkr_workload.Tpcbih
module Q = Tkr_workload.Queries
module Table = Tkr_engine.Table
module Database = Tkr_engine.Database
module Ops = Tkr_engine.Ops
module Vexec = Tkr_vec.Vexec
module Rewriter = Tkr_sqlenc.Rewriter
module Value = Tkr_relation.Value
module Tuple = Tkr_relation.Tuple
module Schema = Tkr_relation.Schema
module Wire = Tkr_serve.Wire

let printf = Printf.printf

let median xs = List.nth (List.sort compare xs) (List.length xs / 2)

(* the lower quartile, the median and the upper quartile of [xs], by
   nearest rank *)
let quartiles xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  (a.(n / 4), a.(n / 2), a.(3 * n / 4))

(* a wall-clock reading in ms: its median, then its quartiles, so a
   reading near a bound shows as noise or as signal *)
let show_ms ?(digits = 2) secs =
  let q1, m, q3 = quartiles secs in
  Printf.sprintf "%.*f ms [%.*f-%.*f]" digits (1e3 *. m) digits (1e3 *. q1) digits
    (1e3 *. q3)

let time_once f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (Unix.gettimeofday () -. t0, r)

(* median-of-3 wall-clock timing with one warmup; a full major
   collection first, so long experiment sequences don't bleed GC debt
   into each other's samples *)
let time_run f =
  Gc.full_major ();
  ignore (f ());
  median (List.init 3 (fun _ -> fst (time_once f)))

(* ------------------------------------------------------------------ *)

let fig1 () =
  printf "=== Figure 1: running example ===\n\n";
  let m = M.create () in
  Database.set_time_bounds (M.database m) ~tmin:0 ~tmax:24;
  ignore
    (M.execute_script m
       {|
       CREATE TABLE works (name text, skill text, b int, e int) PERIOD (b, e);
       INSERT INTO works VALUES
         ('Ann', 'SP', 3, 10), ('Joe', 'NS', 8, 16),
         ('Sam', 'SP', 8, 16), ('Ann', 'SP', 18, 20);
       CREATE TABLE assign (mach text, skill text, b int, e int) PERIOD (b, e);
       INSERT INTO assign VALUES
         ('M1', 'SP', 3, 12), ('M2', 'SP', 6, 14), ('M3', 'NS', 3, 16);
     |});
  printf "Qonduty (snapshot aggregation, note the count-0 gap rows):\n%s\n"
    (Table.to_text
       (M.query m
          "SEQ VT (SELECT count(*) AS cnt FROM works WHERE skill = 'SP') \
           ORDER BY vt_begin"));
  printf "Qskillreq (snapshot bag difference, note the SP rows):\n%s\n"
    (Table.to_text
       (M.query m
          "SEQ VT (SELECT skill FROM assign EXCEPT ALL SELECT skill FROM works) \
           ORDER BY skill DESC, vt_begin"))

(* ------------------------------------------------------------------ *)

let table1 () =
  printf "=== Table 1: interval-based approaches (empirical check) ===\n\n";
  let module PE =
    Tkr_sqlenc.Period_enc.Make (struct
      let domain = Tkr_timeline.Domain.make ~tmin:0 ~tmax:24
    end)
  in
  let module Schema = Tkr_relation.Schema in
  let module Expr = Tkr_relation.Expr in
  let module Algebra = Tkr_relation.Algebra in
  let schema3 name =
    Schema.make
      [ Schema.attr name Value.TStr; Schema.attr "__b" Value.TInt;
        Schema.attr "__e" Value.TInt ]
  in
  let mkdb rows_works rows_assign =
    let db = Database.create ~tmin:0 ~tmax:24 () in
    let t _name rows =
      Table.make
        (Schema.make
           [ Schema.attr "x" Value.TStr; Schema.attr "skill" Value.TStr;
             Schema.attr "__b" Value.TInt; Schema.attr "__e" Value.TInt ])
        (List.map
           (fun (x, s, b, e) ->
             Tuple.make [ Value.Str x; Value.Str s; Value.Int b; Value.Int e ])
           rows)
    in
    Database.add_period_table db "works" (t "works" rows_works);
    Database.add_period_table db "assign" (t "assign" rows_assign);
    db
  in
  let works =
    [ ("Ann", "SP", 3, 10); ("Joe", "NS", 8, 16); ("Sam", "SP", 8, 16);
      ("Ann", "SP", 18, 20) ]
  in
  let assign = [ ("M1", "SP", 3, 12); ("M2", "SP", 6, 14); ("M3", "NS", 3, 16) ] in
  let db = mkdb works assign in
  let qonduty =
    Algebra.Agg
      ( [],
        [ { Algebra.func = Tkr_relation.Agg.Count_star; agg_name = "cnt" } ],
        Algebra.Select
          (Expr.Cmp (Expr.Eq, Expr.Col 1, Expr.Const (Value.Str "SP")),
           Algebra.Rel "works") )
  in
  let qskillreq =
    Algebra.Diff
      ( Algebra.Project ([ Algebra.proj (Expr.Col 1) "skill" ], Algebra.Rel "assign"),
        Algebra.Project ([ Algebra.proj (Expr.Col 1) "skill" ], Algebra.Rel "works") )
  in
  let qdup =
    (* multiset check: a self-union must double multiplicities *)
    Algebra.Project
      ( [ Algebra.proj (Expr.Col 1) "skill" ],
        Algebra.Union (Algebra.Rel "works", Algebra.Rel "works") )
  in
  let lookup n = Database.data_schema_of db n in
  let ours q =
    Tkr_engine.Exec.eval db
      (Rewriter.rewrite ~options:Rewriter.optimized ~tmin:0 ~tmax:24 ~lookup q)
  in
  let has_gap t =
    Array.exists
      (fun r -> Value.equal (Tuple.get r 0) (Value.Int 0))
      (Table.rows t)
  in
  let has_sp t =
    Array.exists
      (fun r -> Value.equal (Tuple.get r 0) (Value.Str "SP"))
      (Table.rows t)
  in
  let multiset_ok t =
    (* 8 rows of skill with doubled multiplicity at peak: check > 4 rows *)
    ignore (schema3 "skill");
    Table.cardinality t > 4
  in
  let unique_check eval =
    (* two snapshot-equivalent encodings of the same relation *)
    let db1 = mkdb [ ("Ann", "SP", 3, 10) ] assign in
    let db2 = mkdb [ ("Ann", "SP", 3, 7); ("Ann", "SP", 7, 10) ] assign in
    let q =
      Algebra.Project ([ Algebra.proj (Expr.Col 1) "skill" ], Algebra.Rel "works")
    in
    Table.equal_bag (eval db1 q) (eval db2 q)
  in
  let approaches =
    [
      ( "Our approach",
        fun db q ->
          let lookup n = Database.data_schema_of db n in
          Tkr_engine.Exec.eval db
            (Rewriter.rewrite ~options:Rewriter.optimized ~tmin:0 ~tmax:24
               ~lookup q) );
      ("Interval preservation (ATSQL)", fun db q -> B.eval B.Interval_preservation db q);
      ("Temporal alignment (PG-Nat)", fun db q -> B.eval B.Alignment db q);
      ("Teradata statement modifiers", fun db q -> B.eval B.Teradata db q);
    ]
  in
  printf "%-32s %-9s %-8s %-8s %-8s\n" "Approach" "Multiset" "AG-free" "BD-free"
    "Unique";
  List.iter
    (fun (name, eval) ->
      let yn b = if b then "yes" else "NO" in
      let bd =
        match has_sp (eval db qskillreq) with
        | b -> yn b
        | exception B.Unsupported_operation _ -> "N/A"
      in
      printf "%-32s %-9s %-8s %-8s %-8s\n" name
        (yn (multiset_ok (eval db qdup)))
        (yn (has_gap (eval db qonduty)))
        bd
        (yn (unique_check eval)))
    approaches;
  ignore ours;
  printf "\n(the paper's Table 1 rows for TSQL2/ATSQL2/TimeDB/SQL-Temporal\n\
          correspond to the two baseline styles above; our approach is the\n\
          only yes/yes/yes/yes row, matching the paper)\n\n"

(* ------------------------------------------------------------------ *)

let emp_config = { (W.scaled 800) with tmax = 4000 }

let table2 () =
  printf "=== Table 2: result row counts ===\n\n";
  let m = M.create ~db:(W.generate emp_config) () in
  printf "Employee workload (%d employees):\n" emp_config.W.employees;
  List.iter
    (fun (name, sql) ->
      let t = M.query m sql in
      printf "  %-10s %8d rows\n%!" name (Table.cardinality t))
    Q.employee;
  List.iter
    (fun (label, scale) ->
      let m = M.create ~db:(T.generate { T.default with scale }) () in
      printf "\nTPC-BiH %s (scale %.2f):\n" label scale;
      List.iter
        (fun (name, sql) ->
          let t = M.query m sql in
          printf "  %-10s %8d rows\n%!" name (Table.cardinality t))
        Q.tpch)
    [ ("small", 1.0); ("large", 4.0) ]

(* ------------------------------------------------------------------ *)

(* multiset coalescing of a period table on the row oracle, and on the
   shipped vec engine over the table's columnar image *)
let coalesce_row t = ignore (Ops.coalesce t)
let coalesce_vec t = ignore (Vexec.coalesce None (Table.columnar t))

(* least-squares slope of log(time) over log(rows) *)
let loglog_slope pts =
  let xs = List.map (fun (n, _) -> log (float_of_int n)) pts
  and ys = List.map (fun (_, t) -> log t) pts in
  let mean l = List.fold_left ( +. ) 0. l /. float_of_int (List.length l) in
  let mx = mean xs and my = mean ys in
  let sxy = List.fold_left2 (fun acc x y -> acc +. ((x -. mx) *. (y -. my))) 0. xs ys
  and sxx = List.fold_left (fun acc x -> acc +. ((x -. mx) ** 2.)) 0. xs in
  sxy /. sxx

(* The vec coalesce's phases at the sizes [--check] fits its slope to:
   ns per row of each phase (median of 7 runs), the phase's own log-log
   slope, and the radix sort's key bound (groups x time span) with the
   8-bit digit passes it takes.  A phase whose ns/row climbs with the
   size is what bends the vec slope. *)
let fig5_phases () =
  let phases = [ "intern"; "sort_begins"; "sort_ends"; "sweep"; "gather" ] in
  let sizes = [ 10_000; 30_000; 100_000 ] in
  printf "\nvec coalesce phases (ns/row, median of 7):\n";
  printf "%8s %7s %10s %7s" "rows" "groups" "ng*span" "passes";
  List.iter (fun p -> printf " %11s" p) phases;
  printf " %9s\n" "total";
  let per_size =
    List.map
      (fun n ->
        let b = Table.columnar (W.coalesce_input ~n ~seed:11 ~tmax:4000) in
        let runs =
          List.init 8 (fun _ ->
              Gc.full_major ();
              let laps = ref [] and t0 = ref (Unix.gettimeofday ()) in
              let lap name =
                let t1 = Unix.gettimeofday () in
                laps := (name, t1 -. !t0) :: !laps;
                t0 := t1
              in
              ignore (Vexec.coalesce ~lap None b);
              !laps)
        in
        (* the first run warms up *)
        let runs = List.tl runs in
        let ns p =
          1e9 *. median (List.map (List.assoc p) runs) /. float_of_int n
        in
        let groups = max 1 (n / 4) and span = 4000 in
        let bound = groups * span in
        let passes = ref 0 in
        while (bound - 1) lsr (8 * !passes) > 0 do
          incr passes
        done;
        printf "%8d %7d %10d %7d" n groups bound !passes;
        let row = List.map (fun p -> (p, ns p)) phases in
        List.iter (fun (_, v) -> printf " %11.1f" v) row;
        printf " %9.1f\n%!" (List.fold_left (fun a (_, v) -> a +. v) 0. row);
        (n, row))
      sizes
  in
  printf "%8s %7s %10s %7s" "slope" "" "" "";
  List.iter
    (fun p ->
      printf " %11.2f"
        (loglog_slope
           (List.map
              (fun (n, row) -> (n, float_of_int n *. List.assoc p row))
              per_size)))
    phases;
  printf "\n%!"

let fig5 () =
  printf "=== Figure 5: multiset coalescing, runtime vs input size ===\n\n";
  printf "%10s %12s %14s %12s %14s\n" "rows" "row time (s)" "row us/row"
    "vec time (s)" "vec us/row";
  List.iter
    (fun n ->
      let t = W.coalesce_input ~n ~seed:11 ~tmax:4000 in
      let row = time_run (fun () -> coalesce_row t) in
      let vec = time_run (fun () -> coalesce_vec t) in
      let per secs = 1e6 *. secs /. float_of_int n in
      printf "%10d %12.5f %14.3f %12.5f %14.3f\n%!" n row (per row) vec (per vec))
    [ 1_000; 3_000; 10_000; 30_000; 100_000; 300_000 ];
  fig5_phases ()

(* ------------------------------------------------------------------ *)

let bug_of_query = function
  | "agg-2" | "agg-3" -> "AG"
  | "diff-1" | "diff-2" -> "BD"
  | "Q6" | "Q14" | "Q19" -> "AG"
  | _ -> ""

let table3emp () =
  printf "=== Table 3 (top): employee snapshot queries, runtime (s) ===\n\n";
  printf "(Seq = our middleware, optimized rewriting; Lit = ours without the\n";
  printf " Section 9 optimizations; Nat = temporal-alignment native baseline\n";
  printf " paired with coalescing, as PG-Nat in the paper)\n\n";
  let db = W.generate emp_config in
  let m = M.create ~db () in
  let m_lit = M.create ~options:Rewriter.literal ~db () in
  printf "%-10s %10s %10s %10s   %-4s\n" "query" "Seq" "Lit" "Nat" "Bug";
  List.iter
    (fun (name, sql) ->
      let p = M.prepare m sql in
      let seq = time_run (fun () -> M.run_prepared m p) in
      let p_lit = M.prepare m_lit sql in
      let lit = time_run (fun () -> M.run_prepared m_lit p_lit) in
      let algebra, _ = M.snapshot_algebra m sql in
      let nat = time_run (fun () -> B.eval_coalesced B.Alignment db algebra) in
      printf "%-10s %10.4f %10.4f %10.4f   %-4s\n%!" name seq lit nat
        (bug_of_query name))
    Q.employee

let table3tpc () =
  printf "=== Table 3 (bottom): TPC-BiH snapshot queries, runtime (s) ===\n\n";
  List.iter
    (fun (label, scale) ->
      let db = T.generate { T.default with scale } in
      let m = M.create ~db () in
      printf "scale %s (%.2f):\n" label scale;
      printf "  %-6s %10s %10s   %-4s\n" "query" "Seq" "Nat" "Bug";
      List.iter
        (fun name ->
          let sql = Q.lookup name Q.tpch in
          let p = M.prepare m sql in
          let seq = time_run (fun () -> M.run_prepared m p) in
          let algebra, _ = M.snapshot_algebra m sql in
          let nat, _ = time_once (fun () -> B.eval_coalesced B.Alignment db algebra) in
          printf "  %-6s %10.4f %10.4f   %-4s\n%!" name seq nat (bug_of_query name))
        Q.tpch_perf_names;
      printf "\n")
    [ ("small", 1.0); ("large", 4.0) ]

(* ------------------------------------------------------------------ *)

let ablation () =
  printf "=== Ablation: the Section 9 optimizations in isolation ===\n\n";
  let db = W.generate emp_config in
  let configs =
    [
      ("optimized (final C, fused agg)", Rewriter.optimized);
      ("per-op coalesce, fused agg",
        { Rewriter.final_coalesce_only = false; fused_split_agg = true });
      ("final C, literal Fig.4 agg",
        { Rewriter.final_coalesce_only = true; fused_split_agg = false });
      ("literal Fig. 4", Rewriter.literal);
    ]
  in
  printf "%-34s %10s %10s %10s\n" "configuration" "join-1" "agg-1" "agg-2";
  List.iter
    (fun (label, options) ->
      let m = M.create ~options ~db () in
      let t q =
        let p = M.prepare m (Q.lookup q Q.employee) in
        time_run (fun () -> M.run_prepared m p)
      in
      printf "%-34s %10.4f %10.4f %10.4f\n%!" label (t "join-1") (t "agg-1")
        (t "agg-2"))
    configs;
  (* the join-order optimizer *)
  printf "\nJoin ordering (seconds):\n";
  let m_opt = M.create ~db () in
  let m_noopt = M.create ~optimize:false ~db () in
  let t m q =
    let p = M.prepare m (Q.lookup q Q.employee) in
    time_run (fun () -> M.run_prepared m p)
  in
  printf "  %-34s %10s %10s\n" "" "join-4" "agg-1";
  printf "  %-34s %10.4f %10.4f\n" "join reordering" (t m_opt "join-4")
    (t m_opt "agg-1");
  printf "  %-34s %10.4f %10.4f\n%!" "no join reordering" (t m_noopt "join-4")
    (t m_noopt "agg-1")

(* ------------------------------------------------------------------ *)

let tourism () =
  printf "=== Tourism dataset (simulated; technical-report workload) ===\n\n";
  let db = Tkr_workload.Tourism.generate Tkr_workload.Tourism.default in
  let m = M.create ~db () in
  printf "facilities: %d rows, stays: %d rows\n\n"
    (Table.cardinality (Database.find db "facilities"))
    (Table.cardinality (Database.find db "stays"));
  List.iter
    (fun (name, sql) ->
      let p = M.prepare m sql in
      let secs = time_run (fun () -> M.run_prepared m p) in
      let rows = Table.cardinality (M.run_prepared m p) in
      printf "  %-24s %8d rows   %8.4f s\n%!" name rows secs)
    Tkr_workload.Tourism.queries;
  printf
    "\n(the total-guests gap rows are the off-season periods; native\n\
    \ approaches with the AG bug report nothing there)\n\n"


(* ------------------------------------------------------------------ *)

(* --check: the evaluation's claims as same-process assertions.  Every
   comparison times both sides in this process on this machine, so the
   verdicts hold on any runner: no committed baseline numbers.  A
   wall-clock reading prints its median, on which the verdict rests, and
   its quartiles in brackets. *)

let failures = ref 0

let verdict ok fmt =
  if not ok then incr failures;
  printf ("%-4s " ^^ fmt ^^ "\n%!") (if ok then "ok" else "FAIL")

(* Seconds per call of [a] and [b]: 5 samples of each taken in
   alternating order (a b, b a, ...), each sample repeating its call
   until it spans ~2 ms so microsecond queries clear the clock's
   resolution.  The first call of each side warms it up and sizes its
   repetitions. *)
let paired a b =
  Gc.full_major ();
  let reps f = max 1 (int_of_float (2e-3 /. max 1e-7 (fst (time_once f)))) in
  let ra = reps a and rb = reps b in
  let sample reps f =
    let t, () =
      time_once (fun () ->
          for _ = 1 to reps do
            ignore (f ())
          done)
    in
    t /. float_of_int reps
  in
  let sa = ref [] and sb = ref [] in
  for i = 1 to 5 do
    let sample_a () = sa := sample ra a :: !sa
    and sample_b () = sb := sample rb b :: !sb in
    if i mod 2 = 1 then (sample_a (); sample_b ()) else (sample_b (); sample_a ())
  done;
  (!sa, !sb)

let ms secs = 1e3 *. secs

(* a prepared statement as a thunk *)
let runner m sql =
  let p = M.prepare m sql in
  fun () -> M.run_prepared m p

(* Fig. 5: multiset coalescing is linear.  Log-log slope of time over
   rows; a quadratic sweep would read 2.0.  Sizes start at 10k rows:
   smaller inputs fit in cache and read steeper.  The row oracle's slope
   is asserted; the shipped vec engine's is measured the same way in the
   same rounds and printed beside it. *)
let check_fig5 () =
  let bound = 1.3 in
  let inputs =
    List.map
      (fun n -> (n, W.coalesce_input ~n ~seed:11 ~tmax:4000))
      [ 10_000; 30_000; 100_000 ]
  in
  (* rounds visit every size and engine in turn, so drift over the run
     (heap growth, a neighbour's load) spreads across all of them instead
     of biasing one *)
  List.iter (fun (_, t) -> coalesce_row t; coalesce_vec t) inputs;
  let timed f t =
    Gc.full_major ();
    fst (time_once (fun () -> f t))
  in
  let rounds =
    List.init 5 (fun _ ->
        List.map (fun (_, t) -> (timed coalesce_row t, timed coalesce_vec t)) inputs)
  in
  (* per size, the rounds' times *)
  let samples pick =
    List.mapi (fun i (n, _) -> (n, List.map (fun r -> pick (List.nth r i)) rounds)) inputs
  in
  let show pts =
    String.concat ", "
      (List.map (fun (n, ts) -> Printf.sprintf "%d rows %s" n (show_ms ts)) pts)
  in
  let slope pts = loglog_slope (List.map (fun (n, ts) -> (n, median ts)) pts) in
  let row = samples fst and vec = samples snd in
  verdict (slope row <= bound)
    "fig5: coalesce log-log slope %.2f <= %.1f (%s); vec %.2f (%s)" (slope row)
    bound (show row) (slope vec) (show vec)

(* [fast] must beat [slow] by at least [factor] *)
let check_wins ~label ~factor ~fast:(fast_name, fast) ~slow:(slow_name, slow) =
  let sf, ss = paired fast slow in
  let tf = median sf and ts = median ss in
  verdict (ts >= factor *. tf) "%s: %s %s vs %s %s (%.1fx, need >= %.1fx)" label
    fast_name (show_ms sf) slow_name (show_ms ss) (ts /. tf) factor

(* Table 3 / Section 9 at the table3emp scale.  The paper reports wins
   of orders of magnitude, so a 2x floor keeps a tie (both sides running
   the same plan) from passing on noise. *)
let check_table3 () =
  let db = W.generate emp_config in
  let m = M.create ~db () in
  let m_split =
    M.create
      ~options:{ Rewriter.final_coalesce_only = true; fused_split_agg = false }
      ~db ()
  in
  let run m name = runner m (Q.lookup name Q.employee) in
  List.iter
    (fun name ->
      check_wins ~label:("table3/pre-aggregation " ^ name) ~factor:2.
        ~fast:("fused split_agg", run m name)
        ~slow:("split-then-aggregate", run m_split name))
    [ "agg-1"; "agg-3" ];
  List.iter
    (fun name ->
      let algebra, _ = M.snapshot_algebra m (Q.lookup name Q.employee) in
      check_wins ~label:("table3/baseline " ^ name) ~factor:2.
        ~fast:("Seq", run m name)
        ~slow:("alignment", fun () -> B.eval_coalesced B.Alignment db algebra))
    [ "agg-1"; "agg-2"; "agg-3" ]

(* The interval index never loses to the scan it replaces: AS OF stabs
   over a 20k-row period table, default engine, index on vs off. *)
let check_index () =
  let adb = Database.create ~tmin:0 ~tmax:2000 () in
  Database.add_period_table adb "history"
    (W.coalesce_input ~n:20_000 ~seed:31 ~tmax:2000);
  let m_index = M.create ~db:adb () and m_scan = M.create ~index:false ~db:adb () in
  List.iter
    (fun (name, sql) ->
      check_wins ~label:("index/" ^ name) ~factor:1.
        ~fast:("index", runner m_index sql)
        ~slow:("scan", runner m_scan sql))
    [
      ("stab-mid", "SEQ VT AS OF 1000 (SELECT emp_no FROM history)");
      ("stab-early", "SEQ VT AS OF 13 (SELECT emp_no FROM history)");
      (* an early stab so the O(n) scan, not the shared downstream
         aggregation, is the dominant term being replaced *)
      ("stab-count", "SEQ VT AS OF 13 (SELECT count(*) AS c FROM history)");
    ]

(* An AS OF read right after a one-row INSERT costs about what the same
   read costs over one built index.  Each round inserts a row, times the
   read (the built index probed, the one-row tail scanned), compacts
   the value and builds its index outside the clock ([Idx_cache.get])
   and times the read again (that index alone), each after a major
   collection; the
   ratio is of the two medians.  Before reads probed the built index
   plus the fresh rows, deriving the whole images on the first read
   after a write read ~12x and ~21x, since the stab is early and its
   own work small. *)
let check_read_after_insert () =
  let bound = 1.5 and sql = "SEQ VT AS OF 13 (SELECT count(*) AS c FROM history)" in
  List.iter
    (fun (n, rounds) ->
      let db = Database.create ~tmin:0 ~tmax:2000 () in
      Database.add_period_table db "history" (W.coalesce_input ~n ~seed:31 ~tmax:2000);
      let m = M.create ~db () in
      let read = runner m sql in
      let timed () =
        (* the garbage of the write or fold before it is not the read's *)
        Gc.major ();
        let t0 = Tkr_obs.Clock.now_ns () in
        ignore (Sys.opaque_identity (read ()));
        Int64.to_float (Int64.sub (Tkr_obs.Clock.now_ns ()) t0) /. 1e9
      in
      let fold () = ignore (Tkr_engine.Idx_cache.get db "history") in
      fold ();
      Gc.full_major ();
      let samples =
        List.init rounds (fun i ->
            Database.append_rows db "history"
              [ Tuple.make [ Value.Int i; Value.Int (i mod 1900); Value.Int ((i mod 1900) + 50) ] ];
            let delta = timed () in
            fold ();
            (delta, timed ()))
      in
      let ds = List.map fst samples and bs = List.map snd samples in
      let d = median ds and b = median bs in
      verdict (d <= bound *. b)
        "writes/read-after-insert %d rows: %s after a one-row INSERT vs %s over built images (%.2fx, need <= %.1fx)"
        n (show_ms ~digits:3 ds) (show_ms ~digits:3 bs) (d /. b) bound)
    [ (10_000, 201); (100_000, 61) ]

(* A one-row INSERT through [Middleware.execute] costs the same at 10k
   and 100k rows: it appends a segment, and merges copy each row
   O(log n) times, amortized.  Each table's index is built first, as a
   served table's is.  Both tables are built before any INSERT is timed,
   and the INSERTs alternate between them (the first side flips every
   round), so a slow patch of the machine lands on both sizes.  Median
   of 301 INSERTs per size, each timed alone; copying the row array on
   every INSERT read ~9.4x.  Its deterministic twin counts the words
   the same INSERTs allocate, outside the clock: minor words plus words
   allocated directly in the major heap (major minus promoted), as a
   mean per INSERT.  The count is the same for the same binary on any
   machine, so its bound is tight. *)
let check_insert_cost () =
  let bound = 1.5 and words_bound = 1.1 and rounds = 301 in
  let words () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let table n =
    let db = Database.create ~tmin:0 ~tmax:2000 () in
    Database.add_period_table db "history" (W.coalesce_input ~n ~seed:31 ~tmax:2000);
    ignore (Tkr_engine.Idx_cache.get db "history");
    M.create ~db ()
  in
  let small_m = table 10_000 and large_m = table 100_000 in
  let insert m i =
    let sql =
      Printf.sprintf "INSERT INTO history VALUES (%d, %d, %d)" i (i mod 1900)
        ((i mod 1900) + 50)
    in
    let w0 = words () in
    let t0 = Tkr_obs.Clock.now_ns () in
    ignore (Sys.opaque_identity (M.execute m sql));
    let t = Int64.to_float (Int64.sub (Tkr_obs.Clock.now_ns ()) t0) /. 1e9 in
    (t, words () -. w0)
  in
  Gc.full_major ();
  let pairs =
    List.init rounds (fun i ->
        if i land 1 = 0 then
          let s = insert small_m i in
          (s, insert large_m i)
        else
          let l = insert large_m i in
          (insert small_m i, l))
  in
  let smalls, small_words = List.split (List.map fst pairs)
  and larges, large_words = List.split (List.map snd pairs) in
  let small = median smalls and large = median larges in
  verdict (large <= bound *. small)
    "writes/insert-cost: one-row INSERT %s at 100k rows vs %s at 10k (%.2fx, need <= %.1fx)"
    (show_ms ~digits:4 larges) (show_ms ~digits:4 smalls) (large /. small) bound;
  let per_insert ws = List.fold_left ( +. ) 0. ws /. float_of_int rounds in
  let small_w = per_insert small_words and large_w = per_insert large_words in
  verdict (large_w <= words_bound *. small_w)
    "writes/insert-words: one-row INSERT allocates %.1f words at 100k rows vs %.1f at 10k (%.3fx, need <= %.1fx)"
    large_w small_w (large_w /. small_w) words_bound

(* The shipped vec engine never loses to the row oracle on the ten
   employee queries at the benchmark's scale (1000 employees). *)
let check_vec db =
  let mv = M.create ~db () and mr = M.create ~engine:M.Row ~db () in
  List.iter
    (fun (name, sql) ->
      check_wins ~label:("vec/" ^ name) ~factor:1. ~fast:("vec", runner mv sql)
        ~slow:("row", runner mr sql))
    Q.employee

(* Join order from statistics: agg-join's largest join stays within 2x
   of its final join at the benchmark's scale.  Joining the per-department
   maxima on dept_no alone first would build ~50x the final join.  Row
   counts come from an executed trace, so the verdict is deterministic. *)
let check_optimizer db =
  let m = M.create ~db () in
  let obs = Tkr_obs.Trace.create () in
  ignore (M.run_prepared ~obs m (M.prepare m (Q.lookup "agg-join" Q.employee)));
  let rows = ref [] in
  List.iter
    (Tkr_obs.Trace.iter (fun sp ->
         match Tkr_obs.Trace.(name sp, find_attr sp "rows_out") with
         | "join", Some (Tkr_obs.Trace.Int n) -> rows := n :: !rows
         | _ -> ()))
    (Tkr_obs.Trace.roots obs);
  (* pre-order: the final join comes first *)
  match List.rev !rows with
  | final :: _ as all ->
      let largest = List.fold_left max 0 all in
      verdict (largest <= 2 * final)
        "optimizer/agg-join: largest join %d rows <= 2x final join %d rows" largest final
  | [] -> verdict false "optimizer/agg-join: no join executed"

(* ------------------------------------------------------------------ *)

(* The serve codec on a 1,000-row, 5-column result (ints, text, a float
   column with NULLs): ms per decode of the whole ok frame and per
   render of its payload, median of 9 batches of 200. *)
let wire () =
  let schema =
    Schema.make
      [
        Schema.attr "id" Value.TInt;
        Schema.attr "name" Value.TStr;
        Schema.attr "salary" Value.TInt;
        Schema.attr "vt_begin" Value.TInt;
        Schema.attr "avg" Value.TFloat;
      ]
  in
  let t =
    Table.of_array schema
      (Array.init 1000 (fun i ->
           Tuple.of_array
             [|
               Value.Int i;
               Value.Str (Printf.sprintf "employee-%04d" i);
               Value.Int (40_000 + (i * 37 mod 20_000));
               Value.Int (i * 3);
               (if i mod 10 = 0 then Value.Null
                else Value.Float (float_of_int i /. 7.));
             |]))
  in
  let payload = Wire.body_to_payload (Wire.Rows t) in
  let frame = Wire.ok_frame ~id:1 ~cached:false ~elapsed_us:0 payload in
  let per_op f =
    Gc.full_major ();
    median
      (List.init 9 (fun _ ->
           fst
             (time_once (fun () ->
                  for _ = 1 to 200 do
                    ignore (Sys.opaque_identity (f ()))
                  done))
           /. 200.))
  in
  let decode = per_op (fun () -> Wire.response_of_string frame) in
  let encode = per_op (fun () -> Wire.body_to_payload (Wire.Rows t)) in
  printf "wire: 1000 rows x 5 columns, frame %d bytes\n" (String.length frame);
  printf "  decode %.3f ms (%.1f ns/byte)   encode %.3f ms\n" (ms decode)
    (decode *. 1e9 /. float_of_int (String.length frame))
    (ms encode)

let check () =
  check_fig5 ();
  check_table3 ();
  check_index ();
  check_read_after_insert ();
  check_insert_cost ();
  let db = W.generate { (W.scaled 1000) with W.tmax = 4000 } in
  check_vec db;
  check_optimizer db;
  if !failures > 0 then (
    printf "%d check(s) failed\n" !failures;
    exit 1)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "--check" ] -> check ()
  | args -> (
      let run = function
        | "fig1" -> fig1 ()
        | "table1" -> table1 ()
        | "table2" -> table2 ()
        | "fig5" -> fig5 ()
        | "table3emp" -> table3emp ()
        | "table3tpc" -> table3tpc ()
        | "ablation" -> ablation ()
        | "tourism" -> tourism ()
        | "wire" -> wire ()
        | other -> failwith ("unknown experiment " ^ other)
      in
      match args with
      | [] | [ "all" ] ->
          List.iter run
            [
              "fig1"; "table1"; "table2"; "fig5"; "table3emp"; "table3tpc";
              "tourism"; "ablation";
            ]
      | w :: _ -> run w)

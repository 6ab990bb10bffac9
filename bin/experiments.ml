(* Regenerates every table and figure of the paper's evaluation section
   (Section 10) on the synthetic workloads, plus the qualitative Table 1.

   Usage: experiments [fig1|table1|table2|fig5|table3emp|table3tpc|ablation|all]

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
module Rewriter = Tkr_sqlenc.Rewriter
module Value = Tkr_relation.Value
module Tuple = Tkr_relation.Tuple

let printf = Printf.printf

(* median-of-3 wall-clock timing with one warmup; a full major collection
   first, so long experiment sequences don't bleed GC debt into each
   other's samples *)
let time_run f =
  Gc.full_major ();
  ignore (f ());
  let sample () =
    let t0 = Unix.gettimeofday () in
    ignore (f ());
    Unix.gettimeofday () -. t0
  in
  let samples = List.sort compare [ sample (); sample (); sample () ] in
  List.nth samples 1

let time_once f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (Unix.gettimeofday () -. t0, r)

(* measurements collected for the --json dump (canonical Tkr_perf
   schema); [runs] is the sample count behind the figure *)
let collected : (string * float * int) list ref = ref []

let record ?(runs = 3) name secs =
  collected := (name, secs, runs) :: !collected;
  secs

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

let fig5 () =
  printf "=== Figure 5: multiset coalescing, runtime vs input size ===\n\n";
  printf "%10s %12s %14s\n" "rows" "time (s)" "us per row";
  List.iter
    (fun n ->
      let t = W.coalesce_input ~n ~seed:11 ~tmax:4000 in
      let secs =
        record
          (Printf.sprintf "fig5/coalesce-%d" n)
          (time_run (fun () -> Ops.coalesce t))
      in
      printf "%10d %12.5f %14.3f\n%!" n secs (1e6 *. secs /. float_of_int n))
    [ 1_000; 3_000; 10_000; 30_000; 100_000; 300_000 ]

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
      let seq =
        record ("table3emp/" ^ name ^ "/seq")
          (time_run (fun () -> M.run_prepared m p))
      in
      let p_lit = M.prepare m_lit sql in
      let lit =
        record ("table3emp/" ^ name ^ "/lit")
          (time_run (fun () -> M.run_prepared m_lit p_lit))
      in
      let algebra, _ = M.snapshot_algebra m sql in
      let nat =
        record ("table3emp/" ^ name ^ "/nat")
          (time_run (fun () -> B.eval_coalesced B.Alignment db algebra))
      in
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
          let seq =
            record
              (Printf.sprintf "table3tpc/%s/%s/seq" label name)
              (time_run (fun () -> M.run_prepared m p))
          in
          let algebra, _ = M.snapshot_algebra m sql in
          let nat, _ = time_once (fun () -> B.eval_coalesced B.Alignment db algebra) in
          let nat =
            record ~runs:1 (Printf.sprintf "table3tpc/%s/%s/nat" label name) nat
          in
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
        record
          (Printf.sprintf "ablation/%s/%s" label q)
          (time_run (fun () -> M.run_prepared m p))
      in
      printf "%-34s %10.4f %10.4f %10.4f\n%!" label (t "join-1") (t "agg-1")
        (t "agg-2"))
    configs;
  (* the join-order optimizer *)
  printf "\nJoin ordering (seconds):\n";
  let m_opt = M.create ~db () in
  let m_noopt = M.create ~optimize:false ~db () in
  let t tag m q =
    let p = M.prepare m (Q.lookup q Q.employee) in
    record
      (Printf.sprintf "ablation/%s/%s" tag q)
      (time_run (fun () -> M.run_prepared m p))
  in
  printf "  %-34s %10s %10s\n" "" "join-4" "agg-1";
  printf "  %-34s %10.4f %10.4f\n" "join reordering"
    (t "reorder" m_opt "join-4")
    (t "reorder" m_opt "agg-1");
  printf "  %-34s %10.4f %10.4f\n%!" "no join reordering"
    (t "no-reorder" m_noopt "join-4")
    (t "no-reorder" m_noopt "agg-1")

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
      let secs =
        record ("tourism/" ^ name) (time_run (fun () -> M.run_prepared m p))
      in
      let rows = Table.cardinality (M.run_prepared m p) in
      printf "  %-24s %8d rows   %8.4f s\n%!" name rows secs)
    Tkr_workload.Tourism.queries;
  printf
    "\n(the total-guests gap rows are the off-season periods; native\n\
    \ approaches with the AG bug report nothing there)\n\n"

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)

module Trace = Tkr_obs.Trace
module Json = Tkr_obs.Json
module Bench_result = Tkr_perf.Bench_result

(* one traced execution per employee query at a small scale: the JSON dump
   carries per-operator counters (with GC/allocation deltas), not just
   end-to-end wall times *)
let operator_traces () : Json.t =
  let m = M.create ~db:(W.generate { (W.scaled 200) with W.tmax = 2000 }) () in
  Json.List
    (List.map
       (fun (name, sql) ->
         let p = M.prepare m sql in
         let obs = Trace.create ~gc:true () in
         ignore (M.run_prepared ~obs m p);
         Json.Obj
           [
             ("query", Json.Str name);
             ("trace", Json.List (List.map Trace.to_json_value (Trace.roots obs)));
             ("phases", M.phase_stats_json (M.prepared_stats p));
           ])
       Q.employee)

(* collected names are "suite/rest..."; key the canonical schema on the
   same split *)
let split_name full =
  match String.index_opt full '/' with
  | Some i ->
      ( String.sub full 0 i,
        String.sub full (i + 1) (String.length full - i - 1) )
  | None -> ("experiments", full)

let write_json path =
  let results =
    List.rev_map
      (fun (name, secs, runs) ->
        let suite, test = split_name name in
        Bench_result.result ~suite ~name:test ~runs (secs *. 1e9))
      !collected
  in
  Bench_result.write path
    (Bench_result.make ~source:"bin/experiments.ml"
       ~extra:[ ("operator_traces", operator_traces ()) ]
       results);
  printf "wrote %s\n%!" path

let () =
  (* [--json [PATH]] dumps every measurement plus per-operator traces *)
  let args = List.tl (Array.to_list Sys.argv) in
  let json_path, args =
    let rec go acc = function
      | "--json" :: path :: rest when String.length path > 0 && path.[0] <> '-'
        ->
          (Some path, List.rev_append acc rest)
      | "--json" :: rest ->
          (Some (Bench_result.default_filename ()), List.rev_append acc rest)
      | a :: rest -> go (a :: acc) rest
      | [] -> (None, List.rev acc)
    in
    go [] args
  in
  let which = match args with w :: _ -> w | [] -> "all" in
  let run = function
    | "fig1" -> fig1 ()
    | "table1" -> table1 ()
    | "table2" -> table2 ()
    | "fig5" -> fig5 ()
    | "table3emp" -> table3emp ()
    | "table3tpc" -> table3tpc ()
    | "ablation" -> ablation ()
    | "tourism" -> tourism ()
    | other -> failwith ("unknown experiment " ^ other)
  in
  (match which with
  | "all" ->
      List.iter run
        [
          "fig1"; "table1"; "table2"; "fig5"; "table3emp"; "table3tpc";
          "tourism"; "ablation";
        ]
  | w -> run w);
  match json_path with None -> () | Some path -> write_json path

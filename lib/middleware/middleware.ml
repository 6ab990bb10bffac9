(** The database middleware of Section 9: snapshot semantics as a SQL
    language feature.

    A query enclosed in [SEQ VT (...)] is interpreted under snapshot
    semantics: it is analyzed against the {e data} schemas of the period
    tables it references (the period attributes are implicit), rewritten
    with REWR (Fig. 4) and executed as a plain multiset query over the
    period encoding.  The result is a period table whose period is exposed
    as the trailing [vt_begin]/[vt_end] columns.  [SEQ VT AS OF t (...)]
    skips REWR: the optimized logical plan runs as a plain query over the
    timeslices of its base tables.

    Queries without [SEQ VT] run as ordinary SQL (period attributes are
    then visible as regular columns).  CREATE TABLE ... PERIOD(b, e),
    INSERT and DROP TABLE are provided for examples and the CLI. *)

open Tkr_relation
module Table = Tkr_engine.Table
module Database = Tkr_engine.Database
module Exec = Tkr_engine.Exec
module Ast = Tkr_sql.Ast
module Parser = Tkr_sql.Parser
module Analyzer = Tkr_sql.Analyzer
module Rewriter = Tkr_sqlenc.Rewriter
module Trace = Tkr_obs.Trace
module Clock = Tkr_obs.Clock
module Json = Tkr_obs.Json
module Metrics = Tkr_obs.Metrics
module Diagnostic = Tkr_check.Diagnostic
module Check = Tkr_check.Check
module Lint = Tkr_check.Lint
module Absint = Tkr_check.Absint
module Rwlock = Tkr_par.Rwlock

exception Error of Diagnostic.t

exception Rejected of Diagnostic.t list
(** The static [check] phase found errors (or, in strict mode, warnings);
    the statement was not executed. *)

let err ?pos code fmt =
  Format.kasprintf
    (fun s -> raise (Error (Diagnostic.v ?pos code "%s" s)))
    fmt

type engine = Row | Vec

(* ---- observability: per-statement phase timings ---- *)

(** Cumulative phase timings of one prepared statement: the preparation
    pipeline (parse → analyze → rewrite → optimize) is timed once, the
    execute phase accumulates over every {!run_prepared}. *)
type phase_stats = {
  mutable parse_ns : int64;
  mutable analyze_ns : int64;
  mutable check_ns : int64;  (** static analysis (Tkr_check), all stages *)
  mutable rewrite_ns : int64;
  mutable optimize_ns : int64;
  mutable runs : int;
  mutable execute_ns : int64;  (** cumulative over [runs] executions *)
  mutable last_rows : int;  (** output cardinality of the last run *)
}

let fresh_stats () =
  {
    parse_ns = 0L;
    analyze_ns = 0L;
    check_ns = 0L;
    rewrite_ns = 0L;
    optimize_ns = 0L;
    runs = 0;
    execute_ns = 0L;
    last_rows = 0;
  }

let add_stats ~into:(a : phase_stats) (b : phase_stats) =
  a.parse_ns <- Int64.add a.parse_ns b.parse_ns;
  a.analyze_ns <- Int64.add a.analyze_ns b.analyze_ns;
  a.check_ns <- Int64.add a.check_ns b.check_ns;
  a.rewrite_ns <- Int64.add a.rewrite_ns b.rewrite_ns;
  a.optimize_ns <- Int64.add a.optimize_ns b.optimize_ns

let pp_phase_stats ppf (s : phase_stats) =
  let ms = Clock.ns_to_ms in
  Format.fprintf ppf
    "parse %.3f ms | analyze %.3f ms | check %.3f ms | rewrite %.3f ms | \
     optimize %.3f ms | execute %.3f ms over %d run%s"
    (ms s.parse_ns) (ms s.analyze_ns) (ms s.check_ns) (ms s.rewrite_ns)
    (ms s.optimize_ns) (ms s.execute_ns) s.runs
    (if s.runs = 1 then "" else "s")

let phase_stats_json (s : phase_stats) : Json.t =
  Json.Obj
    [
      ("parse_ns", Json.Int (Int64.to_int s.parse_ns));
      ("analyze_ns", Json.Int (Int64.to_int s.analyze_ns));
      ("check_ns", Json.Int (Int64.to_int s.check_ns));
      ("rewrite_ns", Json.Int (Int64.to_int s.rewrite_ns));
      ("optimize_ns", Json.Int (Int64.to_int s.optimize_ns));
      ("runs", Json.Int s.runs);
      ("execute_ns", Json.Int (Int64.to_int s.execute_ns));
      ("last_rows", Json.Int s.last_rows);
    ]

type t = {
  db : Database.t;
  options : Rewriter.options;
  optimize : bool;  (** run the cost-based join-order optimizer *)
  engine : engine;
      (** columnar batch-at-a-time ({!Vec}, the default) or
          row-at-a-time ({!Row}, the oracle) execution; the vectorized
          engine reproduces the row engine's output byte-for-byte *)
  strict : bool;
      (** --Werror: the check phase rejects on warnings too *)
  prune : bool;
      (** apply {!Tkr_check.Absint}-driven plan pruning (drop provably
          empty subplans and provably idempotent Distinct/Coalesce);
          byte-identity-preserving, on by default *)
  index : bool;
      (** on the vec engine, answer index-answerable period-table
          selections through the temporal interval index ({!Tkr_idx});
          output is byte-identical to the scan path, on by default *)
  totals : phase_stats;
      (** phase timings accumulated over every statement this middleware
          prepared or ran *)
  metrics : Metrics.t;
      (** per-middleware registry: execute-latency histogram
          ([execute_us]), output-cardinality histogram ([rows_out]) and a
          statement counter, feeding the EXPLAIN ANALYZE quantile line
          and the OpenMetrics exporter *)
  lock : Mutex.t;
      (** guards the cumulative stats ([totals], per-prepared
          [phase_stats]) against concurrent callers *)
  rw : Rwlock.t;
      (** catalog lock: queries hold the (reentrant) read side, DDL/DML
          the exclusive write side — many queries execute concurrently,
          mutations are serialized against everything *)
  write_epoch : int Atomic.t;
      (** bumped by every {!write_locked} section; together with
          {!Database.generation} it forms {!epoch}, the staleness signal
          for prepared statements cached outside the middleware *)
  mutable epoch_hook : (int -> unit) option;
      (** observer notified with the new {!epoch} after every completed
          {!write_locked} section — the query server's invalidation
          telemetry *)
}

let locked mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let create ?(options = Rewriter.optimized) ?(optimize = true)
    ?(prune = true) ?(index = true) ?(engine = Vec)
    ?(strict = false) ?(db = Database.create ()) () =
  {
    db;
    options;
    optimize;
    engine;
    strict;
    prune;
    index;
    totals = fresh_stats ();
    metrics = Metrics.create ();
    lock = Mutex.create ();
    rw = Rwlock.create ();
    write_epoch = Atomic.make 0;
    epoch_hook = None;
  }

let read_locked m f = Rwlock.with_read m.rw f

(* both summands are monotone non-decreasing, so the sum changes whenever
   either does; reading it under [read_locked] excludes writers, making
   (epoch read, prepare, execute) atomic with respect to mutations *)
let epoch m = Atomic.get m.write_epoch + Database.generation m.db

let set_epoch_hook m hook = m.epoch_hook <- hook

let write_locked m f =
  Rwlock.with_write m.rw (fun () ->
      (* bump first: even if [f] raises mid-mutation, cached plans are
         (conservatively) treated as stale *)
      Atomic.incr m.write_epoch;
      let r = f () in
      (match m.epoch_hook with Some h -> h (epoch m) | None -> ());
      r)

let totals m = m.totals
let totals_report m = locked m.lock (fun () -> Format.asprintf "%a" pp_phase_stats m.totals)
let metrics m = m.metrics

let prune m = m.prune
let index_enabled m = m.index
let engine m = m.engine
let strict m = m.strict

let parallelism _ = 1

let database m = m.db
let options m = m.options

(* ---- catalogs ---- *)

let snapshot_catalog m : Analyzer.catalog =
  {
    cat_schema =
      (fun name ->
        if not (Database.mem m.db name) then raise (Schema.Unknown name);
        if not (Database.is_period m.db name) then
          err "TKR020"
            "table %s is not a period table; it cannot appear inside SEQ VT"
            name;
        Database.data_schema_of m.db name);
  }

let plain_catalog m : Analyzer.catalog =
  { cat_schema = (fun name -> Database.schema_of m.db name) }

(* ---- prepared queries ---- *)

type prepared = {
  plan : Algebra.t;  (** ready to execute against the engine *)
  exec : Trace.t -> Database.t -> Table.t;
      (** the plan bound to the engine chosen at prepare time; applied
          to a trace collector ({!Trace.disabled} when not
          observing) *)
  out_schema : Schema.t;  (** user-visible output schema *)
  snapshot : bool;
  order_by : (int * bool) list;
  limit : int option;
  stats : phase_stats;  (** phase timings; execute accumulates per run *)
  diags : Diagnostic.t list;
      (** diagnostics of the static [check] phase (warnings only: a
          statement with errors raises {!Rejected} instead) *)
  analysis : string;
      (** {!Tkr_check.Absint} rendering of the final plan with the
          inferred per-operator facts (time windows, emptiness,
          duplicate-freeness), shown by [EXPLAIN] *)
  access : (string * string) list;
      (** the planner's access-path decision per stored period table read
          through a selection — [(table, "index" | "scan")] in plan order,
          shown by [EXPLAIN]; "index" only on the vec engine with indexes
          on, empty when the plan touches no such read *)
  tables : string list;
      (** base tables the final plan reads, sorted and deduplicated —
          with {!Tkr_engine.Database.version} these form the dependency
          set of a snapshot-aware result cache entry *)
}

let make_exec m plan : Trace.t -> Database.t -> Table.t =
  (* the index flag is captured at prepare time, like the engine *)
  let use_index = m.index in
  match m.engine with
  | Vec -> fun obs db -> Tkr_vec.Vexec.eval ~obs ~use_index db plan
  | Row -> fun obs db -> Exec.eval ~obs db plan

(* time one preparation phase into a [phase_stats] cell *)
let phase (set : int64 -> unit) (f : unit -> 'a) : 'a =
  let ns, r = Clock.elapsed f in
  set ns;
  r

let rec collect_rels acc (q : Algebra.t) =
  match q with
  | Algebra.Rel n -> n :: acc
  | ConstRel _ -> acc
  | Select (_, q) | Project (_, q) | Agg (_, _, q) | Distinct q | Coalesce q ->
      collect_rels acc q
  | Join (_, l, r) | Union (l, r) | Diff (l, r) | Split (_, l, r) ->
      collect_rels (collect_rels acc l) r
  | Split_agg sa -> collect_rels acc sa.sa_child

let vt_begin = "vt_begin"
let vt_end = "vt_end"

(* Set semantics ([SEQ VT SET]): deduplicate every snapshot.  It suffices
   to dedup the operators that can create or preserve duplicates — base
   tables, projections and unions; joins and selections of set-semantics
   inputs are set-semantics; both sides of a difference being sets makes
   the N-monus coincide with set difference; aggregation/distinct see the
   deduplicated input. *)
let rec setify (q : Algebra.t) : Algebra.t =
  match q with
  | Algebra.Rel _ | ConstRel _ -> Algebra.Distinct q
  | Select (p, q0) -> Select (p, setify q0)
  | Project (ps, q0) -> Distinct (Project (ps, setify q0))
  | Join (p, l, r) -> Join (p, setify l, setify r)
  | Union (l, r) -> Distinct (Union (setify l, setify r))
  | Diff (l, r) -> Diff (setify l, setify r)
  | Agg (g, a, q0) -> Agg (g, a, setify q0)
  | Distinct q0 -> Distinct (setify q0)
  | Coalesce _ | Split _ | Split_agg _ ->
      err "TKR201" "setify: physical operator in logical query"

(* plan-level diagnostics lose the AST once analyzed: stamp them with the
   statement's origin position so CHECK/LINT output stays clickable *)
let stamp_pos (origin : Diagnostic.pos option) (ds : Diagnostic.t list) :
    Diagnostic.t list =
  match origin with
  | None -> ds
  | Some _ ->
      List.map
        (fun (d : Diagnostic.t) ->
          match d.Diagnostic.pos with
          | Some _ -> d
          | None -> { d with Diagnostic.pos = origin })
        ds

(* the analysis pass re-runs per check stage (analyzed / optimized /
   physical plans differ in shape but describe one statement): keep only
   the first stage's instance of each TKR4xx code *)
let drop_dup4 ~(prior : Diagnostic.t list) (ds : Diagnostic.t list) :
    Diagnostic.t list =
  let is4 (d : Diagnostic.t) =
    String.length d.Diagnostic.code >= 4
    && String.equal (String.sub d.Diagnostic.code 0 4) "TKR4"
  in
  List.filter
    (fun d ->
      (not (is4 d))
      || not
           (List.exists
              (fun (p : Diagnostic.t) ->
                String.equal p.Diagnostic.code d.Diagnostic.code)
              prior))
    ds

(* τ_t of a logical snapshot plan (Thm 6.3/7.2): every base table is
   replaced by its rows alive at [t] ([Abegin <= t < Aend]) with the
   period columns projected away.  τ_t is a semiring homomorphism, so the
   plain query over these slices is the snapshot of the temporal query
   at [t] — plain aggregation and EXCEPT ALL already are snapshot
   semantics at a single point. *)
let timeslice m t (q : Algebra.t) : Algebra.t =
  let rec go (q : Algebra.t) : Algebra.t =
    match q with
    | Algebra.Rel n ->
        let s = Database.schema_of m.db n in
        let a = Schema.arity s in
        let alive =
          Expr.(
            And
              ( Cmp (Le, Col (a - 2), Const (Value.Int t)),
                Cmp (Lt, Const (Value.Int t), Col (a - 1)) ))
        in
        Project (Algebra.cols_proj s 0 (a - 2), Select (alive, q))
    | ConstRel _ -> q
    | Select (p, q) -> Select (p, go q)
    | Project (ps, q) -> Project (ps, go q)
    | Join (p, l, r) -> Join (p, go l, go r)
    | Union (l, r) -> Union (go l, go r)
    | Diff (l, r) -> Diff (go l, go r)
    | Agg (g, a, q) -> Agg (g, a, go q)
    | Distinct q -> Distinct (go q)
    | Coalesce _ | Split _ | Split_agg _ ->
        err "TKR201" "timeslice: physical operator in logical query"
  in
  go q

let prepare_statement_unlocked m (stmt : Ast.statement) : prepared =
  match stmt with
  | Ast.Query { q; order_by; limit; origin } -> (
      let stats = fresh_stats () in
      (* one stage of the obs-timed static [check] phase: accumulate
         elapsed time, reject right away on errors (or warnings when
         strict) so later phases never see an invalid plan *)
      let checked (f : unit -> Diagnostic.t list) : Diagnostic.t list =
        let ns, ds = Clock.elapsed f in
        stats.check_ns <- Int64.add stats.check_ns ns;
        match Check.verdict ~werror:m.strict (stamp_pos origin ds) with
        | Ok ds -> ds
        | Error ds -> raise (Rejected (Diagnostic.sort ds))
      in
      let is_period n = Database.is_period m.db n in
      let tmin, tmax = Database.time_bounds m.db in
      let enc_lookup n =
        if Database.mem m.db n then Some (Database.schema_of m.db n) else None
      in
      (* the prepared statement over a final plan; [env] seeds the
         analysis rendered by EXPLAIN *)
      let finish ~env ~snapshot ~out_schema ~diags plan =
        locked m.lock (fun () -> add_stats ~into:m.totals stats);
        {
          plan;
          exec = make_exec m plan;
          out_schema;
          snapshot;
          order_by = List.map (Analyzer.resolve_order out_schema) order_by;
          limit;
          stats;
          diags;
          analysis = Absint.render env plan;
          access =
            Tkr_engine.Optimizer.access
              ~use_index:(m.index && m.engine = Vec)
              ~is_period
              ~lookup:(Database.schema_of m.db) plan;
          tables = List.sort_uniq String.compare (collect_rels [] plan);
        }
      in
      (* the plain-query back end, shared by plain SQL and AS OF
         timeslices: the plan reads the stored tables with their period
         columns exposed, so the abstract interpreter seeds those from
         the stored time bounds *)
      let plain ~prior ~snapshot ~out_schema algebra =
        let env = Absint.env ~is_period ~time_bounds:(tmin, tmax) enc_lookup in
        let diags =
          drop_dup4 ~prior
            ( checked @@ fun () ->
              Check.logical ~absint:env ~lookup:enc_lookup algebra )
        in
        let plan = if m.prune then Absint.prune env algebra else algebra in
        (* fuse selection stacks into single conjunctions — the shape the
           index probe recognizer works on.  Unconditional: the plan
           never depends on the index flag. *)
        finish ~env ~snapshot ~out_schema ~diags:(prior @ diags)
          (Tkr_engine.Optimizer.merge_selects plan)
      in
      let kind =
        match q with
        | Ast.Seq_vt inner -> `Snapshot (inner, None, false)
        | Ast.Seq_vt_as_of (t, inner) -> `Snapshot (inner, Some t, false)
        | Ast.Seq_vt_set inner -> `Snapshot (inner, None, true)
        | q -> `Plain q
      in
      match kind with
      | `Snapshot (inner, as_of, set_mode) -> (
          let analyzed =
            phase (fun ns -> stats.analyze_ns <- ns) @@ fun () ->
            let analyzed = Analyzer.analyze_query (snapshot_catalog m) inner in
            let analyzed =
              if set_mode then
                { analyzed with algebra = setify analyzed.algebra }
              else analyzed
            in
            (* every base relation must be a period table *)
            List.iter
              (fun n ->
                if not (is_period n) then
                  err "TKR020" "table %s inside SEQ VT is not a period table" n)
              (collect_rels [] analyzed.algebra);
            analyzed
          in
          let lookup n = Database.data_schema_of m.db n in
          let data_lookup n =
            if Database.mem m.db n then Some (Database.data_schema_of m.db n)
            else None
          in
          (* check: types + logical invariants on the analyzed plan *)
          let diags_analyzed =
            checked @@ fun () ->
            Check.logical ~lookup:data_lookup analyzed.algebra
            @ Lint.plan Lint.middleware analyzed.algebra
          in
          let logical =
            phase (fun ns -> stats.optimize_ns <- ns) @@ fun () ->
            let logical = Simplify.simplify analyzed.algebra in
            if m.optimize then
              let prune_hook =
                if m.prune then Some (Absint.prune (Absint.env data_lookup))
                else None
              in
              Tkr_engine.Optimizer.optimize ?prune:prune_hook
                ~stats:
                  {
                    card =
                      (fun n -> Tkr_engine.Table.cardinality (Database.find m.db n));
                  }
                ~lookup logical
            else logical
          in
          (* check: the optimizer's semantics-preservation claim as a
             machine-checked postcondition *)
          let diags_optimized =
            drop_dup4 ~prior:diags_analyzed
              (checked @@ fun () -> Check.logical ~lookup:data_lookup logical)
          in
          let prior = diags_analyzed @ diags_optimized in
          match as_of with
          | Some t when t < tmin || t >= tmax ->
              (* the bounds are widened to cover every stored period, so
                 no row is alive at [t]: the snapshot is empty, even for
                 an ungrouped aggregate (whose plain evaluation over the
                 empty slices would return one row) *)
              let diags =
                checked @@ fun () ->
                [
                  Diagnostic.warning "TKR408"
                    "AS OF %d lies outside the stored time bounds [%d, %d): \
                     the timeslice is provably empty"
                    t tmin tmax;
                ]
              in
              plain ~prior:(prior @ diags) ~snapshot:true
                ~out_schema:analyzed.schema
                (Algebra.ConstRel (analyzed.schema, []))
          | Some t ->
              plain ~prior ~snapshot:true ~out_schema:analyzed.schema
                (Simplify.simplify (timeslice m t logical))
          | None ->
              let plan =
                phase (fun ns -> stats.rewrite_ns <- ns) @@ fun () ->
                Tkr_engine.Optimizer.merge_selects
                  (Simplify.simplify
                     (Rewriter.rewrite ~options:m.options ~tmin ~tmax ~lookup
                        logical))
              in
              (* check: period-encoding invariants on the rewritten plan,
                 with the abstract interpreter seeded from the period
                 catalog and the database time bounds *)
              let env =
                Absint.env ~temporal:true ~is_period ~time_bounds:(tmin, tmax)
                  enc_lookup
              in
              let diags_physical =
                drop_dup4 ~prior
                  ( checked @@ fun () ->
                    Check.physical ~absint:env ~lookup:enc_lookup plan )
              in
              let plan = if m.prune then Absint.prune env plan else plan in
              finish ~env ~snapshot:true
                ~out_schema:
                  (Schema.make
                     (Schema.attrs analyzed.schema
                     @ [
                         Schema.attr vt_begin Value.TInt;
                         Schema.attr vt_end Value.TInt;
                       ]))
                ~diags:(List.sort_uniq compare (prior @ diags_physical))
                plan)
      | `Plain inner ->
          let analyzed =
            phase (fun ns -> stats.analyze_ns <- ns) @@ fun () ->
            Analyzer.analyze_query (plain_catalog m) inner
          in
          plain ~prior:[] ~snapshot:false ~out_schema:analyzed.schema
            analyzed.algebra)
  | _ -> err "TKR021" "not a query"

let prepare_statement m stmt =
  read_locked m (fun () -> prepare_statement_unlocked m stmt)

let prepare m (sql : string) : prepared =
  let ns, stmt = Clock.elapsed (fun () -> Parser.statement sql) in
  let p = prepare_statement m stmt in
  p.stats.parse_ns <- ns;
  locked m.lock (fun () ->
      m.totals.parse_ns <- Int64.add m.totals.parse_ns ns);
  p

(** Analyze the snapshot query inside a [SEQ VT (...)] statement and return
    its logical algebra and data schema — the input shared by the rewriter
    and the native baseline evaluators. *)
let snapshot_algebra m (sql : string) : Algebra.t * Schema.t =
  match Parser.statement sql with
  | Ast.Query { q = Ast.Seq_vt inner; _ } ->
      read_locked m @@ fun () ->
      let a = Analyzer.analyze_query (snapshot_catalog m) inner in
      (a.algebra, a.schema)
  | _ -> err "TKR021" "expected a SEQ VT query"

let run_prepared ?(obs = Trace.disabled) m (p : prepared) : Table.t =
  read_locked m @@ fun () ->
  let ns, result = Clock.elapsed (fun () -> p.exec obs m.db) in
  locked m.lock (fun () ->
      p.stats.runs <- p.stats.runs + 1;
      p.stats.execute_ns <- Int64.add p.stats.execute_ns ns;
      m.totals.runs <- m.totals.runs + 1;
      m.totals.execute_ns <- Int64.add m.totals.execute_ns ns);
  Metrics.incr (Metrics.counter m.metrics "statements_run");
  Metrics.observe
    (Metrics.histogram m.metrics "execute_us")
    (Int64.to_int (Int64.div ns 1000L));
  let result = Table.of_array p.out_schema (Table.rows result) in
  let rows =
    if p.order_by = [] then Table.rows result
    else (
      let r = Array.copy (Table.rows result) in
      let cmp a b =
        let rec go = function
          | [] -> Tuple.compare a b (* deterministic tie-break *)
          | (col, desc) :: rest ->
              let c = Value.compare (Tuple.get a col) (Tuple.get b col) in
              let c = if desc then -c else c in
              if c <> 0 then c else go rest
        in
        go p.order_by
      in
      Array.sort cmp r;
      r)
  in
  let rows =
    match p.limit with
    | Some l when Array.length rows > l -> Array.sub rows 0 l
    | _ -> rows
  in
  locked m.lock (fun () ->
      p.stats.last_rows <- Array.length rows;
      m.totals.last_rows <- Array.length rows);
  Metrics.observe (Metrics.histogram m.metrics "rows_out") (Array.length rows);
  Table.of_array p.out_schema rows

(* ---- DDL / DML ---- *)

let const_value (e : Ast.expr) : Value.t =
  match e with
  | Ast.Num i -> Value.Int i
  | Ast.Fnum f -> Value.Float f
  | Ast.Str s -> Value.Str s
  | Ast.Bool b -> Value.Bool b
  | Ast.Null -> Value.Null
  | Ast.Neg (Ast.Num i) -> Value.Int (-i)
  | Ast.Neg (Ast.Fnum f) -> Value.Float (-.f)
  | _ -> err "TKR023" "INSERT values must be literals"

(* ---- EXPLAIN rendering ---- *)

(** The final (optimized, rewritten) plan of a prepared query as text. *)
let render_plan (p : prepared) : string =
  let head =
    Format.asprintf "@[<v>%s query@,output: %a@,plan:@,  @[%a@]@]"
      (if p.snapshot then "snapshot" else "plain")
      Schema.pp p.out_schema Algebra.pp p.plan
  in
  let buf = Buffer.create (String.length head + String.length p.analysis + 32) in
  Buffer.add_string buf head;
  if p.access <> [] then begin
    Buffer.add_string buf "\naccess: ";
    Buffer.add_string buf
      (String.concat " "
         (List.map (fun (n, v) -> n ^ "=" ^ v) p.access))
  end;
  Buffer.add_string buf "\nanalysis:";
  String.split_on_char '\n' p.analysis
  |> List.iter (fun line ->
         Buffer.add_string buf "\n  ";
         Buffer.add_string buf line);
  Buffer.contents buf

(** EXPLAIN ANALYZE output: the plan, the executed trace tree annotated
    with per-operator counters, timings and (the collector being GC-
    profiled) allocation deltas, the phase summary, and the middleware's
    execute-latency quantiles. *)
let render_analyze m (p : prepared) (obs : Trace.t) (result : Table.t) : string =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (render_plan p);
  Buffer.add_string buf "\nexecution:\n";
  List.iter
    (fun root ->
      String.split_on_char '\n' (Trace.to_text root)
      |> List.iter (fun line ->
             if line <> "" then (
               Buffer.add_string buf "  ";
               Buffer.add_string buf line;
               Buffer.add_char buf '\n')))
    (Trace.roots obs);
  Buffer.add_string buf
    (Printf.sprintf "result: %d rows\n" (Table.cardinality result));
  (* whole-query GC/allocation summary off the root spans *)
  (let words key =
     List.fold_left
       (fun acc root ->
         match Trace.find_attr root key with
         | Some (Trace.Float w) -> acc +. w
         | Some (Trace.Int w) -> acc +. float_of_int w
         | _ -> acc)
       0. (Trace.roots obs)
   in
   let minor = words Trace.gc_minor_words
   and major = words Trace.gc_major_words in
   if minor > 0. || major > 0. then
     Buffer.add_string buf
       (Printf.sprintf "gc: %.0f minor words, %.0f major words\n" minor major));
  Buffer.add_string buf (Format.asprintf "%a" pp_phase_stats p.stats);
  (let h = Metrics.histogram m.metrics "execute_us" in
   let n = Metrics.histogram_observations h in
   if n > 0 then
     Buffer.add_string buf
       (Printf.sprintf
          "\nexecute latency over %d statement%s: p50=%d us p95=%d us p99=%d \
           us"
          n
          (if n = 1 then "" else "s")
          (Metrics.histogram_quantile h 0.50)
          (Metrics.histogram_quantile h 0.95)
          (Metrics.histogram_quantile h 0.99)));
  Buffer.contents buf

(* ---- CHECK / lint: run the static analyzer without executing ---- *)

(** The full static analysis of one statement, never raising: front-end
    and check-phase errors come back as diagnostics.  DDL/DML statements
    have nothing to check statically. *)
let rec check_statement m (stmt : Ast.statement) : Diagnostic.t list =
  match stmt with
  | Ast.Query { origin; _ } -> (
      match prepare_statement m stmt with
      | p -> p.diags
      | exception Rejected ds -> ds
      | exception Error d -> stamp_pos origin [ d ]
      | exception Analyzer.Error d -> stamp_pos origin [ d ])
  | Ast.Explain { target; _ } | Ast.Check { target } -> check_statement m target
  | Ast.Create_table _ | Ast.Insert _ | Ast.Drop_table _ | Ast.Update _
  | Ast.Delete _ ->
      []

(** Lint one statement's logical plan under an explicit capability
    profile: what would that evaluation style get wrong on this query
    (Table 1)?  DDL/DML have no plan to lint. *)
let rec lint_statement m (profile : Lint.profile) (stmt : Ast.statement) :
    Diagnostic.t list =
  match stmt with
  | Ast.Query { q; _ } ->
      let algebra =
        read_locked m @@ fun () ->
        match q with
        | Ast.Seq_vt inner | Ast.Seq_vt_as_of (_, inner) ->
            (Analyzer.analyze_query (snapshot_catalog m) inner).algebra
        | Ast.Seq_vt_set inner ->
            setify (Analyzer.analyze_query (snapshot_catalog m) inner).algebra
        | q -> (Analyzer.analyze_query (plain_catalog m) q).algebra
      in
      Lint.plan profile algebra
  | Ast.Explain { target; _ } | Ast.Check { target } ->
      lint_statement m profile target
  | Ast.Create_table _ | Ast.Insert _ | Ast.Drop_table _ | Ast.Update _
  | Ast.Delete _ ->
      []

(** Statically analyze one SQL statement; parse and lexical errors are
    returned as diagnostics too. *)
let check m (sql : string) : Diagnostic.t list =
  match Tkr_sql.Parser.statement sql with
  | stmt -> check_statement m stmt
  | exception Tkr_sql.Parser.Error d -> [ d ]
  | exception Tkr_sql.Lexer.Error d -> [ d ]

type result = Rows of Table.t | Done of string

(* queries, EXPLAIN and CHECK: the caller holds the read side of the
   catalog lock (prepare/run take their own nested read locks) *)
let rec execute_query_statement m (stmt : Ast.statement) : result =
  match stmt with
  | Ast.Query _ -> Rows (run_prepared m (prepare_statement m stmt))
  | Ast.Check { target } ->
      Done (Diagnostic.report_to_text (check_statement m target))
  | Ast.Explain { analyze; target } -> (
      match target with
      | Ast.Query _ ->
          let p = prepare_statement m target in
          if not analyze then Done (render_plan p)
          else
            let obs = Trace.create ~gc:true () in
            let result = run_prepared ~obs m p in
            Done (render_analyze m p obs result)
      | Ast.Explain _ ->
          execute_query_statement m target  (* EXPLAIN EXPLAIN ... *)
      | _ -> err "TKR021" "EXPLAIN expects a query")
  | _ -> err "TKR021" "not a query"

(* The rows of an UPDATE or DELETE over [rows], and how many matched:
   [change] maps a matching row to its new value ([None]: deleted).
   Under FOR PORTION OF [a, b) (SQL:2011) a matching row changes only on
   the overlap of its period (the trailing two columns) with [a, b);
   the parts before and after keep the old values, and a row whose
   period misses the portion is neither changed nor counted. *)
let dml_rows ~matches ~portion ~(change : Tuple.t -> Tuple.t option)
    (rows : Tuple.t array) : Tuple.t array * int =
  let count = ref 0 in
  let with_period r b e =
    let n = Tuple.arity r in
    let out = Array.copy (r : Tuple.t :> Value.t array) in
    out.(n - 2) <- Value.Int b;
    out.(n - 1) <- Value.Int e;
    Tuple.of_array out
  in
  let out =
    Array.to_seq rows
    |> Seq.concat_map (fun row ->
           if not (matches row) then Seq.return row
           else
             match portion with
             | None ->
                 incr count;
                 Option.to_seq (change row)
             | Some (a, b) ->
                 let rb, re = Tkr_engine.Ops.period_of_row row in
                 let ob = max rb a and oe = min re b in
                 if ob >= oe then Seq.return row
                 else begin
                   incr count;
                   List.to_seq
                     ((if rb < ob then [ with_period row rb ob ] else [])
                     @ (match change row with
                       | Some r -> [ with_period r ob oe ]
                       | None -> [])
                     @ if oe < re then [ with_period row oe re ] else [])
                 end)
    |> Array.of_seq
  in
  (out, !count)

(* DDL/DML: the caller holds the exclusive write side of the catalog
   lock — no query executes while the catalog or a table mutates *)
let execute_update_statement m (stmt : Ast.statement) : result =
  match stmt with
  | Ast.Create_table { tbl_name; cols; period } -> (
      let schema =
        Schema.make (List.map (fun (n, ty) -> Schema.attr n ty) cols)
      in
      let empty = Table.empty schema in
      match period with
      | None ->
          Database.add_table m.db tbl_name empty;
          Done (Printf.sprintf "created table %s" tbl_name)
      | Some (b, e) ->
          let find c =
            match List.find_index (fun (n, _) -> String.equal n c) cols with
            | Some i -> i
            | None -> err "TKR024" "period column %s is not declared" c
          in
          let bi = find b and ei = find e in
          List.iter
            (fun i ->
              match List.nth cols i with
              | _, Value.TInt -> ()
              | n, _ -> err "TKR024" "period column %s must have type int" n)
            [ bi; ei ];
          Database.add_period_table m.db tbl_name ~begin_col:bi ~end_col:ei
            empty;
          Done (Printf.sprintf "created period table %s" tbl_name))
  | Ast.Insert { ins_name; rows } ->
      let arity = Schema.arity (Database.schema_of m.db ins_name) in
      let tuples =
        List.map
          (fun row ->
            if List.length row <> arity then
              err "TKR022" "INSERT arity mismatch for %s" ins_name;
            Database.stored_row m.db ins_name
              (Array.of_list (List.map const_value row)))
          rows
      in
      Database.append_rows m.db ins_name tuples;
      Done (Printf.sprintf "inserted %d rows into %s" (List.length rows) ins_name)
  | Ast.Drop_table name ->
      Database.remove_table m.db name;
      Done (Printf.sprintf "dropped table %s" name)
  | Ast.Update { upd_name; portion; sets; upd_where } ->
      let schema = Database.schema_of m.db upd_name in
      let n = Schema.arity schema in
      let is_period = Database.is_period m.db upd_name in
      if portion <> None && not is_period then
        err "TKR025" "FOR PORTION OF requires a period table";
      let resolve_col c =
        match Schema.find_opt schema c with
        | Some i ->
            if is_period && portion <> None && i >= n - 2 then
              err "TKR025" "cannot SET the period columns under FOR PORTION OF";
            i
        | None -> err "TKR001" "unknown column %s in UPDATE %s" c upd_name
      in
      let sets =
        List.map
          (fun (c, e) ->
            ( resolve_col c,
              Tkr_sql.Analyzer.resolve ~schema ~on_agg:Tkr_sql.Analyzer.no_agg e ))
          sets
      in
      let pred =
        Option.map
          (Tkr_sql.Analyzer.resolve ~schema ~on_agg:Tkr_sql.Analyzer.no_agg)
          upd_where
      in
      let matches row =
        match pred with None -> true | Some p -> Expr.holds row p
      in
      let apply_sets row =
        let out = Array.copy (row : Tuple.t :> Value.t array) in
        List.iter (fun (i, e) -> out.(i) <- Expr.eval row e) sets;
        Tuple.of_array out
      in
      let rows, updated =
        dml_rows ~matches ~portion
          ~change:(fun row -> Some (apply_sets row))
          (Table.rows (Database.find m.db upd_name))
      in
      Database.set_rows m.db upd_name rows;
      Done (Printf.sprintf "updated %d rows in %s" updated upd_name)
  | Ast.Delete { del_name; del_portion; del_where } ->
      let schema = Database.schema_of m.db del_name in
      let is_period = Database.is_period m.db del_name in
      if del_portion <> None && not is_period then
        err "TKR025" "FOR PORTION OF requires a period table";
      let pred =
        Option.map
          (Tkr_sql.Analyzer.resolve ~schema ~on_agg:Tkr_sql.Analyzer.no_agg)
          del_where
      in
      let matches row =
        match pred with None -> true | Some p -> Expr.holds row p
      in
      let rows, deleted =
        dml_rows ~matches ~portion:del_portion
          ~change:(fun _ -> None)
          (Table.rows (Database.find m.db del_name))
      in
      Database.set_rows m.db del_name rows;
      Done (Printf.sprintf "deleted %d rows from %s" deleted del_name)
  | Ast.Query _ | Ast.Explain _ | Ast.Check _ ->
      err "TKR021" "not a DDL/DML statement"

(* take the lock side matching the statement: queries (and EXPLAIN/CHECK)
   share the read side and run concurrently, DDL/DML is exclusive *)
let execute_statement m (stmt : Ast.statement) : result =
  match stmt with
  | Ast.Query _ | Ast.Explain _ | Ast.Check _ ->
      read_locked m (fun () -> execute_query_statement m stmt)
  | Ast.Create_table _ | Ast.Insert _ | Ast.Drop_table _ | Ast.Update _
  | Ast.Delete _ ->
      write_locked m (fun () -> execute_update_statement m stmt)

let execute m (sql : string) : result =
  let ns, stmt = Clock.elapsed (fun () -> Parser.statement sql) in
  locked m.lock (fun () ->
      m.totals.parse_ns <- Int64.add m.totals.parse_ns ns);
  execute_statement m stmt

(** Run a whole ;-separated script, returning the result of each statement. *)
let execute_script m (sql : string) : result list =
  let ns, stmts = Clock.elapsed (fun () -> Parser.script sql) in
  locked m.lock (fun () ->
      m.totals.parse_ns <- Int64.add m.totals.parse_ns ns);
  List.map (execute_statement m) stmts

(** Convenience: run a query and return its rows. *)
let query m (sql : string) : Table.t =
  match execute m sql with
  | Rows t -> t
  | Done _ -> err "TKR021" "expected a query, got a DDL/DML statement"

(** EXPLAIN: the final (optimized, rewritten) plan of a query as text. *)
let explain m (sql : string) : string = render_plan (prepare m sql)

(** EXPLAIN ANALYZE as a function: prepare, execute under a fresh trace
    collector, render the annotated operator tree plus phase timings. *)
let explain_analyze m (sql : string) : string =
  let p = prepare m sql in
  let obs = Trace.create ~gc:true () in
  let result = run_prepared ~obs m p in
  render_analyze m p obs result

let prepared_stats (p : prepared) = p.stats
let totals_json m : Json.t = locked m.lock (fun () -> phase_stats_json m.totals)

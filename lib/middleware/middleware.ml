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
module Batch = Tkr_engine.Batch
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

exception Error of Diagnostic.t

exception Rejected of Diagnostic.t list
(** The static [check] phase found errors (or, in strict mode, warnings);
    the statement was not executed. *)

let err ?pos code fmt =
  Format.kasprintf
    (fun s -> raise (Error (Diagnostic.v ?pos code "%s" s)))
    fmt

type engine = Row | Vec

(* ---- observability: preparation phase timings ---- *)

(** The preparation phases of one statement (parse → analyze → check →
    rewrite → optimize), each timed once when it is prepared. *)
type phase_stats = {
  mutable parse_ns : int64 option;
      (** [None] when the statement was parsed as part of a script, whose
          parse time is not split per statement *)
  mutable analyze_ns : int64;
  mutable check_ns : int64;  (** static analysis (Tkr_check), all stages *)
  mutable rewrite_ns : int64;
  mutable optimize_ns : int64;
}

let fresh_stats () =
  {
    parse_ns = None;
    analyze_ns = 0L;
    check_ns = 0L;
    rewrite_ns = 0L;
    optimize_ns = 0L;
  }

(* the phase summary of [run --stats] and EXPLAIN ANALYZE *)
let phase_line (s : phase_stats) ~execute_ns ~runs =
  let ms = Clock.ns_to_ms in
  Printf.sprintf
    "parse %s | analyze %.3f ms | check %.3f ms | rewrite %.3f ms | \
     optimize %.3f ms | execute %.3f ms over %d run%s"
    (match s.parse_ns with
    | Some ns -> Printf.sprintf "%.3f ms" (ms ns)
    | None -> "(in script)")
    (ms s.analyze_ns) (ms s.check_ns) (ms s.rewrite_ns)
    (ms s.optimize_ns) (ms execute_ns) runs
    (if runs = 1 then "" else "s")

(* the middleware's registry counters of cumulative phase time, in ns *)
type phase_counters = {
  c_parse : Metrics.counter;
  c_analyze : Metrics.counter;
  c_check : Metrics.counter;
  c_rewrite : Metrics.counter;
  c_optimize : Metrics.counter;
}

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
  metrics : Metrics.t;
      (** per-middleware registry, the one owner of the middleware's
          cumulative numbers: the phase counters below, the
          execute-latency histogram ([execute_us], whose count is the
          number of statements run) and the output-cardinality histogram
          ([rows_out]); they feed [run --stats], the EXPLAIN ANALYZE
          quantile line and the OpenMetrics exporter *)
  phases : phase_counters;
  execute_us : Metrics.histogram;
  rows_out : Metrics.histogram;
}

let create ?(options = Rewriter.optimized) ?(optimize = true)
    ?(prune = true) ?(index = true) ?(engine = Vec)
    ?(strict = false) ?(db = Database.create ()) () =
  let metrics = Metrics.create () in
  (* registered in pipeline order, which is the export order *)
  let ns name = Metrics.counter metrics ("prepare_" ^ name ^ "_ns") in
  let c_parse = ns "parse" in
  let c_analyze = ns "analyze" in
  let c_check = ns "check" in
  let c_rewrite = ns "rewrite" in
  let c_optimize = ns "optimize" in
  let execute_us = Metrics.histogram metrics "execute_us" in
  let rows_out = Metrics.histogram metrics "rows_out" in
  {
    db;
    options;
    optimize;
    engine;
    strict;
    prune;
    index;
    metrics;
    phases = { c_parse; c_analyze; c_check; c_rewrite; c_optimize };
    execute_us;
    rows_out;
  }

(* the middleware over the catalog value current now: whatever a
   statement prepares, executes and reports through it sees that one
   value *)
let pin m =
  let db = Database.pin m.db in
  if db == m.db then m else { m with db }

(* every table version bump and every time-bound change moves the
   generation; on a pinned middleware it names the pinned value *)
let epoch m = Database.generation m.db

let totals_report m =
  let ns c = Int64.of_int (Metrics.value c) in
  let p = m.phases in
  phase_line
    {
      parse_ns = Some (ns p.c_parse);
      analyze_ns = ns p.c_analyze;
      check_ns = ns p.c_check;
      rewrite_ns = ns p.c_rewrite;
      optimize_ns = ns p.c_optimize;
    }
    ~execute_ns:
      (Int64.mul 1000L (Int64.of_int (Metrics.histogram_sum m.execute_us)))
    ~runs:(Metrics.histogram_observations m.execute_us)

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
  stats : phase_stats;  (** preparation phase timings *)
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
  joins : (string * float) list;
      (** the optimizer's estimate of every join of the plan, in
          pre-order; computed only for [EXPLAIN], since estimating may
          read table statistics *)
}

let make_exec m plan : Trace.t -> Database.t -> Table.t =
  (* the index flag is captured at prepare time, like the engine *)
  let use_index = m.index in
  match m.engine with
  | Vec -> fun obs db -> Tkr_vec.Vexec.eval ~obs ~use_index db plan
  | Row -> fun _ db -> Exec.eval db plan

(* time one preparation phase into a [phase_stats] cell and the
   middleware's cumulative counter *)
let phase (c : Metrics.counter) (set : int64 -> unit) (f : unit -> 'a) : 'a =
  let ns, r = Clock.elapsed f in
  set ns;
  Metrics.add c (Int64.to_int ns);
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

(* ---- preparation: shape, optimize, bind ----

   A query is prepared in three stages, each a function of the previous
   one's result and of the pinned catalog value:
   - [shape]: analysis and the analyzed-plan checks, which read schemas
     only and leave a top-level AS OF point open;
   - [optimize]: the join-order optimizer, which reads row counts and
     column statistics, and the check of its plan;
   - [bind]: everything after, for one AS OF point: rewrite or timeslice,
     the final plan's checks and pruning, which read schemas, the time
     bounds and the point.
   [prepare] is their composition.  While {!Database.schema_epoch} holds,
   a shape stays valid, and a bind of an optimized plan equal to an
   earlier one equals the earlier bind at the same point: the query
   server's sessions reuse both. *)

type shape_kind =
  | Snapshot_shape of { analyzed : Analyzer.analyzed; as_of : bool }
      (** a [SEQ VT] query (set mode already applied), its AS OF point
          open when [as_of] *)
  | Plain_shape of Analyzer.analyzed

type shape = {
  sh_epoch : int;  (** the {!Database.schema_epoch} it was analyzed at *)
  sh_kind : shape_kind;
  sh_order_by : Ast.order_item list;
  sh_limit : int option;
  sh_origin : Ast.pos option;
  sh_diags : Diagnostic.t list;  (** the analyzed plan's check warnings *)
  sh_stats : phase_stats;
}

type optimized = {
  o_shape : shape;
  o_logical : Algebra.t;  (** the optimized logical plan *)
  o_diags : Diagnostic.t list;  (** every warning up to this stage *)
  o_stats : phase_stats;
  mutable o_gen : int;
      (** the latest {!Database.generation} whose rows optimize to
          [o_logical] *)
}

let copy_stats (s : phase_stats) = { s with analyze_ns = s.analyze_ns }

(* one stage of the obs-timed static [check] phase: accumulate elapsed
   time, reject right away on errors (or warnings when strict) so later
   phases never see an invalid plan *)
let checked m stats origin (f : unit -> Diagnostic.t list * 'a) :
    Diagnostic.t list * 'a =
  let ds, x =
    phase m.phases.c_check
      (fun ns -> stats.check_ns <- Int64.add stats.check_ns ns)
      f
  in
  match Check.verdict ~werror:m.strict (stamp_pos origin ds) with
  | Ok ds -> (ds, x)
  | Error ds -> raise (Rejected (Diagnostic.sort ds))

let data_lookup m n =
  if Database.mem m.db n then Some (Database.data_schema_of m.db n) else None

(* the estimates know what REWR will make of a SEQ VT plan; an AS OF
   timeslice is a plain query *)
let optimizer_mode m ~as_of : Tkr_engine.Optimizer.mode =
  if as_of then Plain
  else
    let tmin, tmax = Database.time_bounds m.db in
    Snapshot { domain = tmax - tmin }

let opt_stats m =
  { Tkr_engine.Optimizer.card = (fun n -> Table.cardinality (Database.find m.db n)) }

let shape m (stmt : Ast.statement) : shape =
  let m = pin m in
  match stmt with
  | Ast.Query { q; order_by; limit; origin; _ } ->
      let stats = fresh_stats () in
      let analyze f =
        phase m.phases.c_analyze (fun ns -> stats.analyze_ns <- ns) f
      in
      let snapshot inner ~as_of ~set_mode =
        let analyzed =
          analyze @@ fun () ->
          let analyzed = Analyzer.analyze_query (snapshot_catalog m) inner in
          let analyzed =
            if set_mode then { analyzed with algebra = setify analyzed.algebra }
            else analyzed
          in
          (* every base relation must be a period table *)
          List.iter
            (fun n ->
              if not (Database.is_period m.db n) then
                err "TKR020" "table %s inside SEQ VT is not a period table" n)
            (collect_rels [] analyzed.algebra);
          analyzed
        in
        (* check: types + logical invariants on the analyzed plan *)
        let diags, _ =
          checked m stats origin @@ fun () ->
          let ds, _ = Check.logical ~lookup:(data_lookup m) analyzed.algebra in
          (ds @ Lint.plan Lint.middleware analyzed.algebra, ())
        in
        (Snapshot_shape { analyzed; as_of }, diags)
      in
      let sh_kind, sh_diags =
        match q with
        | Ast.Seq_vt inner -> snapshot inner ~as_of:false ~set_mode:false
        | Ast.Seq_vt_as_of (_, inner) ->
            snapshot inner ~as_of:true ~set_mode:false
        | Ast.Seq_vt_set inner -> snapshot inner ~as_of:false ~set_mode:true
        | q ->
            ( Plain_shape
                (analyze (fun () -> Analyzer.analyze_query (plain_catalog m) q)),
              [] )
      in
      {
        sh_epoch = Database.schema_epoch m.db;
        sh_kind;
        sh_order_by = order_by;
        sh_limit = limit;
        sh_origin = origin;
        sh_diags;
        sh_stats = stats;
      }
  | _ -> err "TKR021" "not a query"

let shape_valid m sh = sh.sh_epoch = Database.schema_epoch m.db

let optimize ?prev m (sh : shape) : optimized =
  let m = pin m in
  let gen = Database.generation m.db in
  let prev = match prev with Some o when o.o_shape == sh -> prev | _ -> None in
  match (prev, sh.sh_kind) with
  | Some o, _ when o.o_gen = gen -> o
  | Some o, Plain_shape _ ->
      (* plain SQL is not reordered *)
      o.o_gen <- gen;
      o
  | None, Plain_shape a ->
      {
        o_shape = sh;
        o_logical = a.algebra;
        o_diags = sh.sh_diags;
        o_stats = copy_stats sh.sh_stats;
        o_gen = gen;
      }
  | _, Snapshot_shape { analyzed; as_of } -> (
      let stats = copy_stats sh.sh_stats in
      let lookup n = Database.data_schema_of m.db n in
      let logical =
        phase m.phases.c_optimize (fun ns -> stats.optimize_ns <- ns)
        @@ fun () ->
        let logical = Simplify.simplify analyzed.algebra in
        if m.optimize then
          let prune_hook =
            if m.prune then Some (Absint.prune (Absint.env (data_lookup m)))
            else None
          in
          Tkr_engine.Optimizer.optimize ?prune:prune_hook
            ~table:(Database.find m.db) ~mode:(optimizer_mode m ~as_of)
            ~stats:(opt_stats m) ~lookup logical
        else logical
      in
      match prev with
      | Some o when o.o_logical = logical ->
          o.o_gen <- gen;
          o
      | _ ->
          (* check: the optimizer's semantics-preservation claim as a
             machine-checked postcondition *)
          let diags =
            drop_dup4 ~prior:sh.sh_diags
              (fst
                 ( checked m stats sh.sh_origin @@ fun () ->
                   Check.logical ~lookup:(data_lookup m) logical ))
          in
          {
            o_shape = sh;
            o_logical = logical;
            o_diags = sh.sh_diags @ diags;
            o_stats = stats;
            o_gen = gen;
          })

let bind ?(explain = false) m (o : optimized) (at : int option) : prepared =
  let m = pin m in
  let sh = o.o_shape in
  let stats = copy_stats o.o_stats in
  let checked f = checked m stats sh.sh_origin f in
  let is_period n = Database.is_period m.db n in
  let tmin, tmax = Database.time_bounds m.db in
  let enc_lookup n =
    if Database.mem m.db n then Some (Database.schema_of m.db n) else None
  in
  (* the prepared statement over a final plan; [env] seeds the analysis
     rendered by EXPLAIN, which alone reads it and the access paths *)
  let finish ~env ~snapshot ~out_schema ~diags plan =
    {
      plan;
      exec = make_exec m plan;
      out_schema;
      snapshot;
      order_by = List.map (Analyzer.resolve_order out_schema) sh.sh_order_by;
      limit = sh.sh_limit;
      stats;
      diags;
      analysis = (if explain then Absint.render env plan else "");
      access =
        (if explain then
           Tkr_engine.Optimizer.access
             ~use_index:(m.index && m.engine = Vec)
             ~is_period ~lookup:(Database.schema_of m.db) plan
         else []);
      tables = List.sort_uniq String.compare (collect_rels [] plan);
      joins = [];
    }
  in
  (* the plain-query back end, shared by plain SQL and AS OF timeslices:
     the plan reads the stored tables with their period columns exposed,
     so the abstract interpreter seeds those from the stored time
     bounds *)
  let plain ~prior ~snapshot ~out_schema algebra =
    let env = Absint.env ~is_period ~time_bounds:(tmin, tmax) enc_lookup in
    let diags, pruned =
      checked @@ fun () -> Check.logical ~absint:env ~lookup:enc_lookup algebra
    in
    let diags = drop_dup4 ~prior diags in
    let plan = if m.prune then pruned else algebra in
    (* fuse selection stacks into single conjunctions — the shape the
       index probe recognizer works on.  Unconditional: the plan never
       depends on the index flag. *)
    finish ~env ~snapshot ~out_schema ~diags:(prior @ diags)
      (Tkr_engine.Optimizer.merge_selects plan)
  in
  match sh.sh_kind with
  | Plain_shape a ->
      if at <> None then invalid_arg "Middleware.bind: a point for a plain query";
      plain ~prior:[] ~snapshot:false ~out_schema:a.schema a.algebra
  | Snapshot_shape { analyzed; as_of } -> (
      let logical = o.o_logical in
      let lookup n = Database.data_schema_of m.db n in
      let joins () =
        if explain then
          Tkr_engine.Optimizer.join_estimates ~table:(Database.find m.db)
            ~mode:(optimizer_mode m ~as_of) ~lookup (opt_stats m) logical
        else []
      in
      let prior = o.o_diags in
      match (as_of, at) with
      | true, Some t when t < tmin || t >= tmax ->
          (* the bounds are widened to cover every stored period, so no
             row is alive at [t]: the snapshot is empty, even for an
             ungrouped aggregate (whose plain evaluation over the empty
             slices would return one row) *)
          let diags, () =
            checked @@ fun () ->
            ( [
                Diagnostic.warning "TKR408"
                  "AS OF %d lies outside the stored time bounds [%d, %d): the \
                   timeslice is provably empty"
                  t tmin tmax;
              ],
              () )
          in
          plain ~prior:(prior @ diags) ~snapshot:true ~out_schema:analyzed.schema
            (Algebra.ConstRel (analyzed.schema, []))
      | true, Some t ->
          let joins = joins () in
          let p =
            plain ~prior ~snapshot:true ~out_schema:analyzed.schema
              (Simplify.simplify (timeslice m t logical))
          in
          { p with joins }
      | false, None ->
          let joins = joins () in
          let plan =
            phase m.phases.c_rewrite (fun ns -> stats.rewrite_ns <- ns)
            @@ fun () ->
            Tkr_engine.Optimizer.merge_selects
              (Simplify.simplify
                 (Rewriter.rewrite ~options:m.options ~tmin ~tmax ~lookup logical))
          in
          (* check: period-encoding invariants on the rewritten plan, with
             the abstract interpreter seeded from the period catalog and
             the database time bounds *)
          let env =
            Absint.env ~temporal:true ~is_period ~time_bounds:(tmin, tmax)
              enc_lookup
          in
          let diags_physical, pruned =
            checked @@ fun () -> Check.physical ~absint:env ~lookup:enc_lookup plan
          in
          let diags_physical = drop_dup4 ~prior diags_physical in
          let plan = if m.prune then pruned else plan in
          let p =
            finish ~env ~snapshot:true
              ~out_schema:
                (Schema.make
                   (Schema.attrs analyzed.schema
                   @ [
                       Schema.attr vt_begin Value.TInt;
                       Schema.attr vt_end Value.TInt;
                     ]))
              ~diags:(List.sort_uniq compare (prior @ diags_physical))
              plan
          in
          { p with joins }
      | true, None | false, Some _ ->
          invalid_arg "Middleware.bind: the point does not fit the shape")

(* the top-level AS OF point of a query statement *)
let point (stmt : Ast.statement) =
  match stmt with
  | Ast.Query { q = Ast.Seq_vt_as_of (t, _); _ } -> Some t
  | _ -> None

let prepare_statement ?explain m (stmt : Ast.statement) : prepared =
  let m = pin m in
  bind ?explain m (optimize m (shape m stmt)) (point stmt)

let parse m parser (sql : string) =
  let ns, r = Clock.elapsed (fun () -> parser sql) in
  Metrics.add m.phases.c_parse (Int64.to_int ns);
  (ns, r)

let prepare_sql ?explain m (sql : string) : prepared =
  let ns, stmt = parse m Parser.statement sql in
  let p = prepare_statement ?explain m stmt in
  p.stats.parse_ns <- Some ns;
  p

let prepare m sql = prepare_sql m sql

(** Analyze the snapshot query inside a [SEQ VT (...)] statement and return
    its logical algebra and data schema — the input shared by the rewriter
    and the native baseline evaluators. *)
let snapshot_algebra m (sql : string) : Algebra.t * Schema.t =
  match Parser.statement sql with
  | Ast.Query { q = Ast.Seq_vt inner; _ } ->
      let a = Analyzer.analyze_query (snapshot_catalog (pin m)) inner in
      (a.algebra, a.schema)
  | _ -> err "TKR021" "expected a SEQ VT query"

(* The result keeps its columns: the executed value's image, relabeled
   to the statement's output schema, with ORDER BY as a permutation
   ({!Batch.sort_order}) and LIMIT as a truncation of its rows.  Rows
   are boxed only when a caller asks for them. *)
let run_prepared ?(obs = Trace.disabled) m (p : prepared) : Table.t =
  let ns, result = Clock.elapsed (fun () -> p.exec obs (Database.pin m.db)) in
  Metrics.observe m.execute_us (Int64.to_int (Int64.div ns 1000L));
  let b = { (Table.columnar result) with Batch.schema = p.out_schema } in
  let n = Batch.length b in
  let keep = match p.limit with Some l when l < n -> l | _ -> n in
  let sel =
    if p.order_by <> [] then
      let order = Batch.sort_order p.order_by b in
      Some (if keep < n then Array.sub order 0 keep else order)
    else if keep < n then Some (Array.init keep Fun.id)
    else None
  in
  let result = Table.of_batch (Option.fold ~none:b ~some:(Batch.with_sel b) sel) in
  Metrics.observe m.rows_out (Table.cardinality result);
  result

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

(* A stored row of a period table has non-NULL integer begin and end
   values (its last two columns); [what] names the statement. *)
let check_period ~what schema (t : Tuple.t) =
  let n = Schema.arity schema in
  for c = n - 2 to n - 1 do
    match Tuple.get t c with
    | Value.Int _ -> ()
    | v ->
        err "TKR026" "%s: period column %s must be a non-NULL integer, got %s"
          what (Schema.name schema c) (Value.to_string v)
  done

(* The stored rows of an INSERT, validated before anything is written:
   each row has the table's arity and literal values, and a period
   table's begin and end values are non-NULL integers. *)
let insert_tuples db ins_name (rows : Ast.expr list list) : Tuple.t list =
  let schema = Database.schema_of db ins_name in
  let arity = Schema.arity schema in
  let is_period = Database.is_period db ins_name in
  List.map
    (fun row ->
      if List.length row <> arity then
        err "TKR022" "INSERT arity mismatch for %s" ins_name;
      let t =
        Database.stored_row db ins_name
          (Array.of_list (List.map const_value row))
      in
      if is_period then check_period ~what:("INSERT into " ^ ins_name) schema t;
      t)
    rows

(* What an UPDATE or DELETE over [t] writes: the positions of the rows
   it replaces, ascending, the rows that replace them, in that order,
   and how many matched.  [change] maps a matching row to its new value
   ([None]: deleted).  Under FOR PORTION OF [a, b) (SQL:2011) a matching
   row changes only on the overlap of its period (the trailing two
   columns) with [a, b); the parts before and after keep the old values,
   and a row whose period misses the portion is neither changed nor
   counted. *)
let dml_rows ~matches ~portion ~(change : Tuple.t -> Tuple.t option)
    (t : Table.t) : int array * Tuple.t array * int =
  let with_period r b e =
    let n = Tuple.arity r in
    let out = Array.copy (r : Tuple.t :> Value.t array) in
    out.(n - 2) <- Value.Int b;
    out.(n - 1) <- Value.Int e;
    Tuple.of_array out
  in
  let deleted = ref [] and added = ref [] and count = ref 0 in
  let edit i frags =
    incr count;
    deleted := i :: !deleted;
    added := List.rev_append frags !added
  in
  Table.iteri
    (fun i row ->
      if matches row then
        match portion with
        | None -> edit i (Option.to_list (change row))
        | Some (a, b) ->
            let rb, re = Tkr_engine.Ops.period_of_row row in
            let ob = Int.max rb a and oe = Int.min re b in
            if ob < oe then begin
              let after = if oe < re then [ with_period row oe re ] else [] in
              let mid =
                match change row with
                | Some r -> with_period r ob oe :: after
                | None -> after
              in
              edit i (if rb < ob then with_period row rb ob :: mid else mid)
            end)
    t;
  (Array.of_list (List.rev !deleted), Array.of_list (List.rev !added), !count)

(* the rows of [schema] an UPDATE's or DELETE's WHERE clause selects *)
let where_matches schema where : Tuple.t -> bool =
  match Option.map (Analyzer.resolve ~schema ~on_agg:Analyzer.no_agg) where with
  | None -> fun _ -> true
  | Some p -> fun row -> Expr.holds row p

let check_portion db name portion =
  if portion <> None && not (Database.is_period db name) then
    err "TKR025" "FOR PORTION OF requires a period table"

(* What an UPDATE writes ({!dml_rows}), validated before anything is
   written: a period table's begin and end values stay non-NULL
   integers. *)
let update_rows db upd_name ~portion ~sets ~upd_where :
    int array * Tuple.t array * int =
  let schema = Database.schema_of db upd_name in
  let n = Schema.arity schema in
  let is_period = Database.is_period db upd_name in
  check_portion db upd_name portion;
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
  let matches = where_matches schema upd_where in
  let apply_sets row =
    let out = Array.copy (row : Tuple.t :> Value.t array) in
    List.iter (fun (i, e) -> out.(i) <- Expr.eval row e) sets;
    let t = Tuple.of_array out in
    if is_period then check_period ~what:("UPDATE " ^ upd_name) schema t;
    t
  in
  dml_rows ~matches ~portion
    ~change:(fun row -> Some (apply_sets row))
    (Database.find db upd_name)

(* What a DELETE writes ({!dml_rows}). *)
let delete_rows db del_name ~portion ~del_where :
    int array * Tuple.t array * int =
  check_portion db del_name portion;
  dml_rows
    ~matches:(where_matches (Database.schema_of db del_name) del_where)
    ~portion
    ~change:(fun _ -> None)
    (Database.find db del_name)

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
  (match p.joins with
  | [] -> ()
  | joins ->
      Buffer.add_string buf "\njoins (pre-order, estimated rows):";
      List.iter
        (fun (label, rows) ->
          Buffer.add_string buf (Printf.sprintf "\n  %s  est_rows=%.0f" label rows))
        joins);
  Buffer.add_string buf "\nanalysis:";
  String.split_on_char '\n' p.analysis
  |> List.iter (fun line ->
         Buffer.add_string buf "\n  ";
         Buffer.add_string buf line);
  Buffer.contents buf

(** EXPLAIN ANALYZE: run [p] under a fresh GC-profiling trace collector
    and render the plan, the executed trace tree annotated with
    per-operator counters, timings and allocation deltas, the phase
    summary, and the middleware's execute-latency quantiles. *)
let run_analyze m (p : prepared) : string =
  let obs = Trace.create ~gc:true () in
  let result = run_prepared ~obs m p in
  let buf = Buffer.create 512 in
  Buffer.add_string buf (render_plan p);
  (* each executed join beside its estimate; the executed plan's joins
     are the optimized plan's, in the same pre-order, unless rewriting or
     pruning changed their number *)
  (let spans = ref [] in
   List.iter
     (Trace.iter (fun sp -> if Trace.name sp = "join" then spans := sp :: !spans))
     (Trace.roots obs);
   if List.length p.joins = List.length !spans then
     List.iter2
       (fun sp (_, rows) ->
         Trace.set_before sp ~before:"rows_out" "est_rows"
           (Trace.Int (int_of_float (Float.round rows))))
       (List.rev !spans) p.joins);
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
  (* the execution time of this run is its trace's *)
  let execute_ns =
    List.fold_left (fun acc root -> Int64.add acc (Trace.elapsed_ns root)) 0L
      (Trace.roots obs)
  in
  Buffer.add_string buf (phase_line p.stats ~execute_ns ~runs:1);
  (let h = m.execute_us in
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
    and check-phase errors come back as diagnostics.  INSERT, UPDATE and
    DELETE run the checks they run before writing, over the rows the
    table holds now; DDL has nothing to check statically. *)
let rec check_statement m (stmt : Ast.statement) : Diagnostic.t list =
  let m = pin m in
  (* a missing table is left to execution *)
  let before_write f =
    match ignore (f ()) with
    | () -> []
    | exception (Error d | Analyzer.Error d) -> [ d ]
    | exception Schema.Unknown _ -> []
  in
  match stmt with
  | Ast.Query { origin; _ } -> (
      match prepare_statement m stmt with
      | p -> p.diags
      | exception Rejected ds -> ds
      | exception Error d -> stamp_pos origin [ d ]
      | exception Analyzer.Error d -> stamp_pos origin [ d ])
  | Ast.Explain { target; _ } | Ast.Check { target } -> check_statement m target
  | Ast.Insert { ins_name; rows } ->
      before_write (fun () -> insert_tuples m.db ins_name rows)
  | Ast.Update { upd_name; portion; sets; upd_where } ->
      before_write (fun () -> update_rows m.db upd_name ~portion ~sets ~upd_where)
  | Ast.Delete { del_name; del_portion; del_where } ->
      before_write (fun () ->
          delete_rows m.db del_name ~portion:del_portion ~del_where)
  | Ast.Create_table _ | Ast.Drop_table _ -> []

(** Lint one statement's logical plan under an explicit capability
    profile: what would that evaluation style get wrong on this query
    (Table 1)?  DDL/DML have no plan to lint. *)
let rec lint_statement m (profile : Lint.profile) (stmt : Ast.statement) :
    Diagnostic.t list =
  match stmt with
  | Ast.Query { q; _ } ->
      let algebra =
        let m = pin m in
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

(* queries, EXPLAIN and CHECK, on a pinned middleware: prepare and run
   see the same catalog value *)
let rec execute_query_statement ~parse_ns m (stmt : Ast.statement) : result =
  match stmt with
  | Ast.Query _ -> Rows (run_prepared m (prepare_statement m stmt))
  | Ast.Check { target } ->
      Done (Diagnostic.report_to_text (check_statement m target))
  | Ast.Explain { analyze; target } -> (
      match target with
      | Ast.Query _ ->
          let p = prepare_statement ~explain:true m target in
          p.stats.parse_ns <- parse_ns;
          Done (if analyze then run_analyze m p else render_plan p)
      | Ast.Explain _ ->
          execute_query_statement ~parse_ns m target  (* EXPLAIN EXPLAIN ... *)
      | _ -> err "TKR021" "EXPLAIN expects a query")
  | _ -> err "TKR021" "not a query"

(* DDL/DML through [db], a handle holding the catalog's writer mutex:
   a statement's reads and its one write see no other write between
   them *)
let execute_update_statement db (stmt : Ast.statement) : result =
  match stmt with
  | Ast.Create_table { tbl_name; cols; period } -> (
      let schema =
        Schema.make (List.map (fun (n, ty) -> Schema.attr n ty) cols)
      in
      let empty = Table.empty schema in
      match period with
      | None ->
          Database.add_table db tbl_name empty;
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
          Database.add_period_table db tbl_name ~begin_col:bi ~end_col:ei
            empty;
          Done (Printf.sprintf "created period table %s" tbl_name))
  | Ast.Insert { ins_name; rows } ->
      Database.append_rows db ins_name (insert_tuples db ins_name rows);
      Done (Printf.sprintf "inserted %d rows into %s" (List.length rows) ins_name)
  | Ast.Drop_table name ->
      Database.remove_table db name;
      Done (Printf.sprintf "dropped table %s" name)
  | Ast.Update { upd_name; portion; sets; upd_where } ->
      let deleted, rows, updated =
        update_rows db upd_name ~portion ~sets ~upd_where
      in
      Database.replace_rows db upd_name ~deleted rows;
      Done (Printf.sprintf "updated %d rows in %s" updated upd_name)
  | Ast.Delete { del_name; del_portion; del_where } ->
      let gone, rows, deleted =
        delete_rows db del_name ~portion:del_portion ~del_where
      in
      Database.replace_rows db del_name ~deleted:gone rows;
      Done (Printf.sprintf "deleted %d rows from %s" deleted del_name)
  | Ast.Query _ | Ast.Explain _ | Ast.Check _ ->
      err "TKR021" "not a DDL/DML statement"

(* a query (or EXPLAIN/CHECK) runs on one pinned catalog value and never
   waits; DDL/DML serializes on the writer mutex and publishes its
   successor value *)
let execute_statement ~parse_ns m (stmt : Ast.statement) : result =
  match stmt with
  | Ast.Query _ | Ast.Explain _ | Ast.Check _ ->
      execute_query_statement ~parse_ns (pin m) stmt
  | Ast.Create_table _ | Ast.Insert _ | Ast.Drop_table _ | Ast.Update _
  | Ast.Delete _ ->
      Database.serialized m.db @@ fun db -> execute_update_statement db stmt

let parse_statement m (sql : string) = parse m Parser.statement sql

let execute m (sql : string) : result =
  let ns, stmt = parse_statement m sql in
  execute_statement ~parse_ns:(Some ns) m stmt

(** Parse a ;-separated script on the parse counter; a statement carries
    its own parse time only when it is the whole script. *)
let parse_script m (sql : string) : (int64 option * Ast.statement) list =
  match parse m Parser.script sql with
  | ns, [ stmt ] -> [ (Some ns, stmt) ]
  | _, stmts -> List.map (fun stmt -> (None, stmt)) stmts

(** Run a whole ;-separated script, returning the result of each statement. *)
let execute_script m (sql : string) : result list =
  List.map
    (fun (parse_ns, stmt) -> execute_statement ~parse_ns m stmt)
    (parse_script m sql)

(** Convenience: run a query and return its rows. *)
let query m (sql : string) : Table.t =
  match execute m sql with
  | Rows t -> t
  | Done _ -> err "TKR021" "expected a query, got a DDL/DML statement"

(** EXPLAIN: the final (optimized, rewritten) plan of a query as text. *)
let explain m (sql : string) : string = render_plan (prepare_sql ~explain:true m sql)

(** EXPLAIN ANALYZE as a function: prepare, execute under a fresh trace
    collector, render the annotated operator tree plus phase timings. *)
let explain_analyze m (sql : string) : string =
  let m = pin m in
  run_analyze m (prepare_sql ~explain:true m sql)

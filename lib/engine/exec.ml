(** The plan interpreter: evaluates the (possibly rewritten) algebra over
    physical multiset tables.

    Join strategy: conjunctive predicates are scanned for equi-join keys
    ([Expr.equi_keys]); when any are found a hash join is used with the
    remaining conjuncts (e.g. the interval-overlap condition added by the
    rewriter) as a residual filter, otherwise a nested-loop join.

    Every operator can report into a {!Tkr_obs.Trace} span (rows in/out,
    chosen join strategy, residual-filter hit rate); with the default
    disabled collector the instrumentation reduces to a branch per
    operator, not per row. *)

open Tkr_relation
module Trace = Tkr_obs.Trace

let select pred (t : Table.t) : Table.t =
  Table.of_array (Table.schema t)
    (Array.of_seq
       (Seq.filter (fun row -> Expr.holds row pred)
          (Array.to_seq (Table.rows t))))

let project (projs : Algebra.proj list) (t : Table.t) : Table.t =
  let schema = Table.schema t in
  let out_schema =
    Schema.make
      (List.map
         (fun (p : Algebra.proj) ->
           Schema.attr p.name (Expr.infer_ty schema p.expr))
         projs)
  in
  let exprs = Array.of_list (List.map (fun (p : Algebra.proj) -> p.expr) projs) in
  Table.of_array out_schema
    (Array.map
       (fun row -> Tuple.of_array (Array.map (Expr.eval row) exprs))
       (Table.rows t))

let union (a : Table.t) (b : Table.t) : Table.t =
  if not (Schema.union_compatible (Table.schema a) (Table.schema b)) then
    invalid_arg "engine: UNION ALL over incompatible schemas";
  Table.of_array (Table.schema a) (Array.append (Table.rows a) (Table.rows b))

(** EXCEPT ALL via counting: each right row cancels one matching left row. *)
let except_all (a : Table.t) (b : Table.t) : Table.t =
  if not (Schema.union_compatible (Table.schema a) (Table.schema b)) then
    invalid_arg "engine: EXCEPT ALL over incompatible schemas";
  let counts : (Tuple.t, int ref) Hashtbl.t =
    Hashtbl.create (max 16 (Table.cardinality b))
  in
  Array.iter
    (fun row ->
      match Hashtbl.find_opt counts row with
      | Some c -> incr c
      | None -> Hashtbl.add counts row (ref 1))
    (Table.rows b);
  let buf = ref [] in
  Array.iter
    (fun row ->
      match Hashtbl.find_opt counts row with
      | Some c when !c > 0 -> decr c
      | _ -> buf := row :: !buf)
    (Table.rows a);
  Table.make (Table.schema a) (List.rev !buf)

let nested_loop_join pred (l : Table.t) (r : Table.t) : Table.t =
  let out_schema = Schema.concat (Table.schema l) (Table.schema r) in
  let buf = ref [] in
  Array.iter
    (fun lrow ->
      Array.iter
        (fun rrow ->
          let row = Tuple.append lrow rrow in
          if Expr.holds row pred then buf := row :: !buf)
        (Table.rows r))
    (Table.rows l);
  Table.make out_schema (List.rev !buf)

let hash_join ?sp keys residual (l : Table.t) (r : Table.t) : Table.t =
  let out_schema = Schema.concat (Table.schema l) (Table.schema r) in
  let lkeys = List.map fst keys and rkeys = List.map snd keys in
  let index : (Tuple.t, Tuple.t list ref) Hashtbl.t =
    Hashtbl.create (max 16 (Table.cardinality r))
  in
  Array.iter
    (fun rrow ->
      let key = Tuple.project rkeys rrow in
      match Hashtbl.find_opt index key with
      | Some cell -> cell := rrow :: !cell
      | None -> Hashtbl.add index key (ref [ rrow ]))
    (Table.rows r);
  let candidates = ref 0 and passed = ref 0 in
  let buf = ref [] in
  Array.iter
    (fun lrow ->
      let key = Tuple.project lkeys lrow in
      (* NULL keys never join (SQL equality semantics) *)
      if not (Array.exists Value.is_null key) then
        match Hashtbl.find_opt index key with
        | Some matches ->
            List.iter
              (fun rrow ->
                incr candidates;
                let row = Tuple.append lrow rrow in
                let ok =
                  match residual with
                  | None -> true
                  | Some p -> Expr.holds row p
                in
                if ok then (
                  incr passed;
                  buf := row :: !buf))
              (List.rev !matches)
        | None -> ())
    (Table.rows l);
  Trace.set_int sp "candidates" !candidates;
  Trace.set_bool sp "residual" (residual <> None);
  Trace.set_int sp "residual_passed" !passed;
  Table.make out_schema (List.rev !buf)

(** Index-assisted selection over a stored period table: when the
    conjuncts bound the period columns on both sides ({!Tkr_idx.Probe}),
    probe the interval index for the candidate rows and re-apply the
    {e full} predicate to them.  The probe bounds are necessary conditions
    of the predicate and candidates come back in physical row order, so
    the result is byte-identical to the scan.  [None] when the predicate
    is not index-answerable (caller falls back to the scan). *)
let index_select ?sp (db : Database.t) pred (n : string) : Table.t option =
  let t = Database.find db n in
  let arity = Schema.arity (Table.schema t) in
  match Tkr_idx.Probe.bounds ~arity pred with
  | None -> None
  | Some { Tkr_idx.Probe.b_hi; e_lo } -> (
      match Idx_cache.get db n with
      | None -> None
      | Some idx ->
          let cand = Tkr_idx.Interval.probe idx ~b_hi ~e_lo in
          Tkr_idx.Stats.record_probes ~probes:1
            ~candidates:(Array.length cand);
          Trace.set_str sp "access" "index";
          Trace.set_int sp "candidates" (Array.length cand);
          let rows = Table.rows t in
          let buf = ref [] in
          Array.iter
            (fun i ->
              let row = rows.(i) in
              if Expr.holds row pred then buf := row :: !buf)
            cand;
          Some (Table.make (Table.schema t) (List.rev !buf)))

(** Index nested-loop join: for [Join (p, l, Rel r)] with no equi-keys
    (the nested-loop regime) whose conjuncts sandwich the right table's
    period between left columns, probe the right side's index once per
    left row instead of scanning it.  Candidates are in right physical
    order and the full predicate is re-applied, so emission matches
    {!nested_loop_join} row for row.  A left probe key that is not an
    integer (e.g. NULL) falls back to scanning the right side for that
    row, which the full predicate then filters identically. *)
let index_join ?sp (db : Database.t) pred (lt : Table.t) (rn : string) :
    Table.t option =
  let rt = Database.find db rn in
  let la = Schema.arity (Table.schema lt) in
  let ra = Schema.arity (Table.schema rt) in
  match Tkr_idx.Probe.join_bounds ~left_arity:la ~right_arity:ra pred with
  | None -> None
  | Some jb -> (
      match Idx_cache.get db rn with
      | None -> None
      | Some idx ->
          let out_schema = Schema.concat (Table.schema lt) (Table.schema rt) in
          let rrows = Table.rows rt in
          let buf = ref [] in
          let probes = ref 0 and cands = ref 0 in
          Array.iter
            (fun lrow ->
              let emit rrow =
                let row = Tuple.append lrow rrow in
                if Expr.holds row pred then buf := row :: !buf
              in
              match
                (Tuple.get lrow jb.Tkr_idx.Probe.jb_col,
                 Tuple.get lrow jb.Tkr_idx.Probe.je_col)
              with
              | Value.Int bv, Value.Int ev ->
                  incr probes;
                  let cand =
                    Tkr_idx.Interval.probe idx
                      ~b_hi:{ Tkr_idx.Interval.v = bv; incl = jb.jb_incl }
                      ~e_lo:{ Tkr_idx.Interval.v = ev; incl = jb.je_incl }
                  in
                  cands := !cands + Array.length cand;
                  Array.iter (fun i -> emit rrows.(i)) cand
              | _ -> Array.iter emit rrows)
            (Table.rows lt);
          Tkr_idx.Stats.record_probes ~probes:!probes ~candidates:!cands;
          Trace.set_str sp "strategy" "index_nested_loop";
          Trace.set_str sp "access" "index";
          Trace.set_int sp "probes" !probes;
          Trace.set_int sp "candidates" !cands;
          Some (Table.make out_schema (List.rev !buf)))

let join ?sp pred (l : Table.t) (r : Table.t) : Table.t =
  match Expr.equi_keys ~left_arity:(Schema.arity (Table.schema l)) pred with
  | [], _ ->
      Trace.set_str sp "strategy" "nested_loop";
      Trace.set_int sp "pairs" (Table.cardinality l * Table.cardinality r);
      nested_loop_join pred l r
  | keys, residual ->
      Trace.set_str sp "strategy" "hash";
      Trace.set_int sp "equi_keys" (List.length keys);
      hash_join ?sp keys residual l r

let aggregate (group : Algebra.proj list) (aggs : Algebra.agg_spec list)
    (t : Table.t) : Table.t =
  let child_schema = Table.schema t in
  let out_schema = Neval.agg_out_schema child_schema group aggs in
  let gexprs = Array.of_list (List.map (fun (p : Algebra.proj) -> p.expr) group) in
  let agg_arr = Array.of_list aggs in
  let table : (Tuple.t, Agg.acc array) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  Array.iter
    (fun row ->
      let key = Tuple.of_array (Array.map (Expr.eval row) gexprs) in
      let accs =
        match Hashtbl.find_opt table key with
        | Some a -> a
        | None ->
            let a = Array.make (Array.length agg_arr) Agg.empty in
            Hashtbl.add table key a;
            order := key :: !order;
            a
      in
      Array.iteri
        (fun i (spec : Algebra.agg_spec) ->
          let v =
            match Agg.input_expr spec.func with
            | None -> Value.Int 1
            | Some e -> Expr.eval row e
          in
          accs.(i) <- Agg.step accs.(i) v)
        agg_arr)
    (Table.rows t);
  if group = [] && Hashtbl.length table = 0 then (
    Hashtbl.add table (Tuple.make []) (Array.make (Array.length agg_arr) Agg.empty);
    order := [ Tuple.make [] ]);
  let buf = ref [] in
  List.iter
    (fun key ->
      let accs = Hashtbl.find table key in
      let finals =
        List.mapi (fun i (spec : Algebra.agg_spec) -> Agg.final spec.func accs.(i)) aggs
      in
      buf := Tuple.append key (Tuple.make finals) :: !buf)
    (List.rev !order);
  Table.make out_schema (List.rev !buf)

let distinct (t : Table.t) : Table.t =
  let seen : (Tuple.t, unit) Hashtbl.t = Hashtbl.create 64 in
  let buf = ref [] in
  Array.iter
    (fun row ->
      if not (Hashtbl.mem seen row) then (
        Hashtbl.add seen row ();
        buf := row :: !buf))
    (Table.rows t);
  Table.make (Table.schema t) (List.rev !buf)

(** Display name of the operator at the root of a plan (trace span
    labels; shared with the vectorized engine so traces line up). *)
let op_label (q : Algebra.t) : string =
  match q with
  | Rel n -> "scan(" ^ n ^ ")"
  | ConstRel _ -> "const"
  | Select _ -> "select"
  | Project _ -> "project"
  | Join _ -> "join"
  | Union _ -> "union"
  | Diff _ -> "except_all"
  | Agg _ -> "aggregate"
  | Distinct _ -> "distinct"
  | Coalesce _ -> "coalesce"
  | Split _ -> "split"
  | Split_agg _ -> "split_agg"

let rows_in sp tables =
  match sp with
  | None -> ()
  | Some _ ->
      Trace.set_int sp "rows_in"
        (List.fold_left (fun acc t -> acc + Table.cardinality t) 0 tables)

let rec eval ?(obs = Trace.disabled) ?(use_index = false)
    (db : Database.t) (q : Algebra.t) : Table.t =
  Trace.with_span obs (op_label q) @@ fun sp ->
  let result =
    match q with
    | Rel n ->
        let t = Database.find db n in
        rows_in sp [ t ];
        t
    | ConstRel (schema, tuples) ->
        let t = Table.make schema tuples in
        rows_in sp [ t ];
        t
    | Select (p, q) -> (
        let scan () =
          let t = eval ~obs ~use_index db q in
          rows_in sp [ t ];
          select p t
        in
        match q with
        | Rel n when Database.is_period db n -> (
            match if use_index then index_select ?sp db p n else None with
            | Some result ->
                rows_in sp [ Database.find db n ];
                result
            | None ->
                Trace.set_str sp "access" "scan";
                scan ())
        | _ -> scan ())
    | Project (projs, q) ->
        let t = eval ~obs ~use_index db q in
        rows_in sp [ t ];
        project projs t
    | Join (p, l, r) -> (
        let lt = eval ~obs ~use_index db l in
        let indexed =
          match r with
          | Rel rn when use_index && Database.is_period db rn -> (
              match
                Expr.equi_keys ~left_arity:(Schema.arity (Table.schema lt)) p
              with
              | [], _ -> (
                  match index_join ?sp db p lt rn with
                  | Some res -> Some (res, Database.find db rn)
                  | None -> None)
              | _ -> None)
          | _ -> None
        in
        match indexed with
        | Some (res, rt) ->
            rows_in sp [ lt; rt ];
            res
        | None ->
            let rt = eval ~obs ~use_index db r in
            rows_in sp [ lt; rt ];
            join ?sp p lt rt)
    | Union (l, r) ->
        let lt = eval ~obs ~use_index db l in
        let rt = eval ~obs ~use_index db r in
        rows_in sp [ lt; rt ];
        union lt rt
    | Diff (l, r) ->
        let lt = eval ~obs ~use_index db l in
        let rt = eval ~obs ~use_index db r in
        rows_in sp [ lt; rt ];
        except_all lt rt
    | Agg (group, aggs, q) ->
        let t = eval ~obs ~use_index db q in
        rows_in sp [ t ];
        aggregate group aggs t
    | Distinct q ->
        let t = eval ~obs ~use_index db q in
        rows_in sp [ t ];
        distinct t
    | Coalesce q ->
        let t = eval ~obs ~use_index db q in
        rows_in sp [ t ];
        Ops.coalesce ?sp t
    | Split (g, l, r) ->
        (* avoid evaluating a shared subquery twice *)
        if l == r then (
          let t = eval ~obs ~use_index db l in
          rows_in sp [ t ];
          Ops.split ?sp g t t)
        else
          let lt = eval ~obs ~use_index db l in
          let rt = eval ~obs ~use_index db r in
          rows_in sp [ lt; rt ];
          Ops.split ?sp g lt rt
    | Split_agg sa ->
        let t = eval ~obs ~use_index db sa.sa_child in
        rows_in sp [ t ];
        Ops.split_agg ?sp ~group:sa.sa_group ~aggs:sa.sa_aggs ~gap:sa.sa_gap t
  in
  (match sp with
  | None -> ()
  | Some _ -> Trace.set_int sp "rows_out" (Table.cardinality result));
  result

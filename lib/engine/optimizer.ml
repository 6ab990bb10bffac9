(** A cost-based logical optimizer: join-order selection by greedy
    join-size estimation over table statistics, plus selection pushdown
    through join trees.

    The paper observes (Section 10.4) that the alignment-based native
    approach "aligns both inputs with respect to each other \[which\]
    introduces unnecessary overhead and limits join reordering".  Our
    middleware rewrites snapshot queries into ordinary multiset algebra,
    so standard optimizations apply unchanged; this module provides them.

    The optimizer runs on the {e logical} query (before REWR) and is
    purely semantics-preserving: it never changes the multiset produced,
    which the differential tests in [test/test_optimizer.ml] verify on
    random queries.  Its estimates know what REWR will make of the plan:
    in a [SEQ VT] plan every join also requires its inputs' periods to
    overlap, and every aggregation is split at its group's endpoints. *)

open Tkr_relation

type stats = { card : string -> int }
(** Cardinality oracle for base relations (missing tables may raise; the
    estimator treats exceptions as a default size). *)

type mode = Plain | Snapshot of { domain : int }

let default_card = 1000.

let rel_card stats n =
  match stats.card n with c -> float_of_int (max 1 c) | exception _ -> default_card

type env = {
  stats : stats;
  table : (string -> Table.t) option;
  mode : mode;
  lookup : string -> Schema.t;
}

(* what the estimator knows about one output column *)
type col = {
  ndv : float;  (* distinct non-NULL values *)
  null_frac : float;
  lo : Value.t option;  (* the value range, when known *)
  hi : Value.t option;
  measured : bool;
      (* [ndv] was measured.  An unmeasured column counts as a key in a
         join, and a comparison with a constant cannot be scored *)
}

let unknown rows = { ndv = rows; null_frac = 0.; lo = None; hi = None; measured = false }
let cap rows c = if c.ndv > rows then { c with ndv = rows } else c

(* An estimate of a plan's output.  [col] and [span] are forced only where
   a predicate, a grouping or an overlap asks for them, so ordering a join
   that needs no ranking reads no statistics. *)
type est = {
  rows : float;
  arity : int;
  col : int -> col;
  span : float Lazy.t;  (* mean period length of a row; SEQ VT plans only *)
}

let domain_span env =
  match env.mode with Snapshot { domain } -> float_of_int domain | Plain -> 0.

let base env n : est =
  let rows = rel_card env.stats n in
  let table () =
    match env.table with
    | Some f -> ( match f n with t -> Some t | exception _ -> None)
    | None -> None
  in
  let col i =
    match table () with
    | Some t when i < Schema.arity (Table.schema t) ->
        let c = Table.column_stats t i in
        {
          ndv = float_of_int (max 1 c.distinct);
          null_frac = float_of_int c.nulls /. float_of_int (max 1 c.count);
          lo = c.min;
          hi = c.max;
          measured = true;
        }
    | _ -> unknown rows
  in
  let span =
    lazy
      (match (env.mode, table ()) with
      | Snapshot _, Some t -> (
          match Table.mean_period t with
          | Some l -> l
          | None -> domain_span env)
      | _ -> domain_span env)
  in
  { rows; arity = Schema.arity (env.lookup n); col; span }

(* the fraction of [c]'s non-NULL values on the [op] side of [v],
   interpolated over the column's range *)
let range (c : col) (op : Expr.cmp) (v : Value.t) =
  match
    ( Option.bind c.lo Value.to_float_opt,
      Option.bind c.hi Value.to_float_opt,
      Value.to_float_opt v )
  with
  | Some lo, Some hi, Some x when hi > lo ->
      let below = Float.min 1. (Float.max 0. ((x -. lo) /. (hi -. lo))) in
      (1. -. c.null_frac) *. (match op with Lt | Le -> below | _ -> 1. -. below)
  | _ -> 1.

let flip : Expr.cmp -> Expr.cmp = function
  | Lt -> Gt
  | Le -> Ge
  | Gt -> Lt
  | Ge -> Le
  | op -> op

(* the fraction of [c]'s rows equal to one of [k] constants *)
let one_of (c : col) k =
  if not c.measured then 1.
  else Float.min 1. (float_of_int k *. (1. -. c.null_frac) /. Float.max 1. c.ndv)

(* The fraction of rows a predicate keeps.  The column equalities of a
   conjunction are join keys: they keep 1 / max(ndv) of the pairs, the
   largest distinct count over all key columns (keys of one join are
   rarely independent).  Every other conjunct scales that on its own; a
   predicate the estimator cannot read keeps everything. *)
let rec selectivity (col : int -> col) (p : Expr.t) : float =
  let keys, rest =
    List.partition_map
      (function Expr.Cmp (Eq, Col i, Col j) -> Left [ col i; col j ] | c -> Right c)
      (Expr.conjuncts p)
  in
  let keys = List.concat keys in
  let key_sel =
    if keys = [] then 1.
    else
      List.fold_left (fun acc c -> acc *. (1. -. c.null_frac)) 1. keys
      /. List.fold_left (fun acc c -> Float.max acc c.ndv) 1. keys
  in
  List.fold_left (fun acc c -> acc *. conjunct col c) key_sel rest

and conjunct col (p : Expr.t) : float =
  match p with
  | Or (a, b) ->
      let x = selectivity col a and y = selectivity col b in
      x +. y -. (x *. y)
  | Cmp (Eq, Col i, Const v) | Cmp (Eq, Const v, Col i) ->
      if Value.is_null v then 0. else one_of (col i) 1
  | In_list (Col i, vs) -> one_of (col i) (List.length vs)
  | Cmp (((Lt | Le | Gt | Ge) as op), Col i, Const v) -> range (col i) op v
  | Cmp (((Lt | Le | Gt | Ge) as op), Const v, Col i) -> range (col i) (flip op) v
  | _ -> 1.

let filter rows (e : est) =
  let rows = Float.max 1. rows in
  { e with rows; col = (fun i -> cap rows (e.col i)) }

(* The output column an expression over [e] computes. *)
let expr_col (e : est) : Expr.t -> col = function
  | Col j -> e.col j
  | Const v ->
      {
        ndv = 1.;
        null_frac = (if Value.is_null v then 1. else 0.);
        lo = Some v;
        hi = Some v;
        measured = true;
      }
  | _ -> unknown e.rows

(* In a SEQ VT plan REWR adds an overlap conjunct to every join: two
   periods of mean lengths l and r placed uniformly in a domain of length
   |T| overlap with probability (l + r) / |T|. *)
let overlap env (l : est) (r : est) =
  match env.mode with
  | Plain -> 1.
  | Snapshot { domain } ->
      Float.min 1.
        ((Lazy.force l.span +. Lazy.force r.span) /. float_of_int (max 1 domain))

(* [l] and [r] joined under [p], whose columns [col] resolves. *)
let combine env (l : est) (r : est) ~arity ~col p : est =
  let rows = Float.max 1. (l.rows *. r.rows *. selectivity col p *. overlap env l r) in
  {
    rows;
    arity;
    col = (fun c -> cap rows (col c));
    (* the mean intersection of two overlapping periods of lengths a, b *)
    span =
      lazy
        (let a = Lazy.force l.span and b = Lazy.force r.span in
         if a +. b <= 0. then 0. else a *. b /. (a +. b));
  }

let rec est env (q : Algebra.t) : est =
  match q with
  | Rel n -> base env n
  | ConstRel (s, ts) ->
      let rows = float_of_int (max 1 (List.length ts)) in
      { rows; arity = Schema.arity s; col = (fun _ -> unknown rows); span = lazy (domain_span env) }
  | Select (p, q) ->
      let e = est env q in
      filter (e.rows *. selectivity e.col p) e
  | Project (ps, q) ->
      let e = est env q in
      let ps = Array.of_list ps in
      { e with arity = Array.length ps; col = (fun i -> expr_col e ps.(i).expr) }
  | Distinct q | Coalesce q | Diff (q, _) -> est env q
  | Join (p, l, r) ->
      let l = est env l and r = est env r in
      combine env l r ~arity:(l.arity + r.arity)
        ~col:(fun c -> if c < l.arity then l.col c else r.col (c - l.arity))
        p
  | Union (l, r) ->
      let a = est env l and b = est env r in
      let rows = a.rows +. b.rows in
      {
        rows;
        arity = a.arity;
        col = (fun _ -> unknown rows);
        span =
          lazy
            (((a.rows *. Lazy.force a.span) +. (b.rows *. Lazy.force b.span)) /. rows);
      }
  | Agg (group, aggs, q) ->
      let e = est env q in
      let group = Array.of_list group in
      let rows =
        match env.mode with
        | Snapshot _ ->
            (* REWR splits the aggregation at its group's endpoints, at
               most 2n of them: the output is on the order of the input,
               whatever the group count *)
            e.rows
        | Plain ->
            (* one row per group (NULL is a group of its own), never more
               than the input *)
            Array.fold_left
              (fun acc (p : Algebra.proj) ->
                let c = expr_col e p.expr in
                acc *. (c.ndv +. if c.null_frac > 0. then 1. else 0.))
              1. group
            |> Float.min e.rows
      in
      let ng = Array.length group in
      {
        rows;
        arity = ng + List.length aggs;
        col = (fun i -> if i < ng then cap rows (expr_col e group.(i).expr) else unknown rows);
        span = e.span;
      }
  (* physical operators: only rewritten plans carry them, and the
     optimizer never orders those; a split's output is bounded by its
     input's endpoints *)
  | Split (_, l, _) -> est env l
  | Split_agg sa ->
      let e = est env sa.sa_child in
      {
        e with
        arity = List.length sa.sa_group + List.length sa.sa_aggs + 2;
        col = (fun _ -> unknown e.rows);
      }

let estimate ?table ?(mode = Plain) ~lookup (stats : stats) (q : Algebra.t) : float =
  (est { stats; table; mode; lookup } q).rows

(* --- join tree flattening --- *)

type item = { alg : Algebra.t; arity : int; offset : int }

let conjuncts_of = Expr.conjuncts

let conj = function
  | [] -> Expr.Const (Value.Bool true)
  | first :: rest -> List.fold_left (fun a c -> Expr.And (a, c)) first rest

(* Flatten a tree of inner joins (looking through selections above joins)
   into items in concatenation order plus a conjunct pool over the
   concatenated schema. *)
let rec flatten ~arity_of (q : Algebra.t) : item list * Expr.t list =
  match q with
  | Join (p, l, r) ->
      let li, lc = flatten ~arity_of l in
      let ri, rc = flatten ~arity_of r in
      let nl = List.fold_left (fun a i -> a + i.arity) 0 li in
      let ri =
        List.map (fun i -> { i with offset = i.offset + nl }) ri
      in
      let rc = List.map (Expr.map_cols (fun c -> c + nl)) rc in
      (li @ ri, lc @ rc @ conjuncts_of p)
  | Select (p, (Join _ as j)) ->
      let items, conjs = flatten ~arity_of j in
      (items, conjs @ conjuncts_of p)
  | q ->
      let n = arity_of q in
      ([ { alg = q; arity = n; offset = 0 } ], [])

(* Greedy join ordering: start from the smallest input, then repeatedly
   add the item whose join with the prefix chosen so far is estimated
   smallest.  A candidate's join applies every conjunct it completes, so
   an unconnected item scores as the cross product it would make. *)
let order_items env (items : item list) (conjs : Expr.t list) : item list =
  match items with
  | [] | [ _ ] -> items
  | _ ->
      let covered_by chosen c =
        List.for_all
          (fun col ->
            List.exists
              (fun it -> it.offset <= col && col < it.offset + it.arity)
              chosen)
          (Expr.cols c)
      in
      (* two inputs make the same join either way round: the one with
         fewer rows by table sizes alone goes first, and no statistics
         are read *)
      let env = match items with [ _; _ ] -> { env with table = None } | _ -> env in
      let ests = List.map (fun it -> (it, est env it.alg)) items in
      let est_of it = List.assq it ests in
      let smallest score = function
        | [] -> invalid_arg "Optimizer.order_items"
        | first :: rest ->
            List.fold_left
              (fun (b, sb) it ->
                let s = score it in
                if s.rows < sb.rows then (it, s) else (b, sb))
              (first, score first) rest
      in
      (* [prefix] extended by [it]: its columns numbered as in the
         original concatenation, under every conjunct [it] completes *)
      let extend chosen prefix it =
        let e = est_of it in
        let mine c = it.offset <= c && c < it.offset + it.arity in
        let completed =
          List.filter
            (fun c -> (not (covered_by chosen c)) && covered_by (it :: chosen) c)
            conjs
        in
        combine env prefix e ~arity:0 (* prefix columns keep their original numbers *)
          ~col:(fun c -> if mine c then e.col (c - it.offset) else prefix.col c)
          (conj completed)
      in
      let seed, _ = smallest est_of items in
      let chosen = ref [ seed ] in
      let remaining = ref (List.filter (fun i -> i != seed) items) in
      (* the seed under its local conjuncts *)
      let prefix =
        ref
          (lazy
            (let e = est_of seed in
             let col c = e.col (c - seed.offset) in
             filter
               (e.rows *. selectivity col (conj (List.filter (covered_by [ seed ]) conjs)))
               { e with col }))
      in
      while !remaining <> [] do
        let best =
          match !remaining with
          | [ it ] -> it
          | cands ->
              let p = Lazy.force !prefix in
              let best, e = smallest (extend !chosen p) cands in
              prefix := Lazy.from_val e;
              best
        in
        chosen := !chosen @ [ best ];
        remaining := List.filter (fun i -> i != best) !remaining
      done;
      !chosen

(* Rebuild a left-deep join from ordered items, remapping conjunct columns
   from the original concatenation order to the new one, and appending a
   projection that restores the original column order. *)
let rebuild ~schema (items : item list) (ordered : item list)
    (conjs : Expr.t list) : Algebra.t =
  let total = List.fold_left (fun a i -> a + i.arity) 0 items in
  (* original position -> new position *)
  let old_to_new = Array.make total 0 in
  let _ =
    List.fold_left
      (fun newoff it ->
        for j = 0 to it.arity - 1 do
          old_to_new.(it.offset + j) <- newoff + j
        done;
        newoff + it.arity)
      0 ordered
  in
  let conjs = List.map (Expr.map_cols (fun c -> old_to_new.(c))) conjs in
  (* place each conjunct at the first join where its columns are available *)
  let pool = ref conjs in
  let take avail =
    let mine, rest =
      List.partition
        (fun c -> List.for_all (fun col -> col < avail) (Expr.cols c))
        !pool
    in
    pool := rest;
    mine
  in
  let tree =
    match ordered with
    | [] -> invalid_arg "Optimizer.rebuild: no items"
    | first :: rest ->
        let acc, _ =
          List.fold_left
            (fun (acc, avail) it ->
              let avail' = avail + it.arity in
              (Algebra.Join (conj (take avail'), acc, it.alg), avail'))
            ( (let local = take first.arity in
               if local = [] then first.alg else Algebra.Select (conj local, first.alg)),
              first.arity )
            rest
        in
        acc
  in
  let tree =
    match !pool with [] -> tree | left -> Algebra.Select (conj left, tree)
  in
  (* restore the original column order and names *)
  let projs =
    List.init total (fun c ->
        Algebra.proj (Expr.Col old_to_new.(c)) (Schema.name schema c))
  in
  Algebra.Project (projs, tree)

(** Optimize a logical query: reorder flattened join trees greedily by
    estimated join size, then apply the optional analysis-driven
    [prune] hook (supplied by the middleware from [Tkr_check.Absint];
    the engine does not depend on the checker).  Output multisets are
    identical to the input's on every database consistent with the
    schemas; [prune] must preserve rows {e and} their order. *)
let optimize ?(prune : (Algebra.t -> Algebra.t) option) ?table ?(mode = Plain)
    ~(stats : stats) ~(lookup : string -> Schema.t) (q : Algebra.t) :
    Algebra.t =
  let env = { stats; table; mode; lookup } in
  let arity_of q = Schema.arity (Algebra.schema_of ~lookup q) in
  let rec go (q : Algebra.t) : Algebra.t =
    match q with
    | Join _ | Select (_, Join _) -> (
        let items, conjs = flatten ~arity_of q in
        let items = List.map (fun it -> { it with alg = go it.alg }) items in
        match items with
        | [] | [ _ ] -> descend q
        | _ ->
            let schema = Algebra.schema_of ~lookup q in
            (* schema_of on a Select(_, Join) = join schema: fine *)
            let ordered = order_items env items conjs in
            if
              List.map (fun i -> i.offset) ordered
              = List.map (fun i -> i.offset) items
            then descend q (* order unchanged: keep the original shape *)
            else rebuild ~schema items ordered conjs)
    | q -> descend q
  and descend (q : Algebra.t) : Algebra.t =
    match q with
    | Rel _ | ConstRel _ -> q
    | Select (p, q) -> Select (p, go q)
    | Project (ps, q) -> Project (ps, go q)
    | Join (p, l, r) -> Join (p, go l, go r)
    | Union (l, r) -> Union (go l, go r)
    | Diff (l, r) -> Diff (go l, go r)
    | Agg (g, a, q) -> Agg (g, a, go q)
    | Distinct q -> Distinct (go q)
    | Coalesce q -> Coalesce (go q)
    | Split (g, l, r) ->
        if l == r then
          let l' = go l in
          Split (g, l', l')
        else Split (g, go l, go r)
    | Split_agg sa -> Split_agg { sa with sa_child = go sa.sa_child }
  in
  let q = go q in
  match prune with Some f -> f q | None -> q

(* ---- EXPLAIN: the estimate of every join ---- *)

(* a join input's short name: a table by its name, a subquery by the
   joins and aggregations inside it *)
let rec label (q : Algebra.t) : string =
  match q with
  | Rel n -> n
  | ConstRel _ -> "const"
  | Select (_, q) | Project (_, q) | Coalesce q | Split (_, q, _) -> label q
  | Agg (_, _, q) | Split_agg { sa_child = q; _ } -> "γ(" ^ label q ^ ")"
  | Distinct q -> "δ(" ^ label q ^ ")"
  | Join (_, l, r) -> operand l ^ " ⋈ " ^ operand r
  | Union (l, r) -> operand l ^ " ∪ " ^ operand r
  | Diff (l, r) -> operand l ^ " − " ^ operand r

and operand (q : Algebra.t) : string =
  match q with
  | Select (_, q) | Project (_, q) | Coalesce q | Split (_, q, _) -> operand q
  | Join _ | Union _ | Diff _ -> "(" ^ label q ^ ")"
  | q -> label q

let join_estimates ?table ?(mode = Plain) ~lookup (stats : stats)
    (q : Algebra.t) : (string * float) list =
  let env = { stats; table; mode; lookup } in
  let out = ref [] in
  let rec go (q : Algebra.t) =
    match q with
    | Rel _ | ConstRel _ -> ()
    | Join (_, l, r) ->
        out := (label q, (est env q).rows) :: !out;
        go l;
        go r
    | Select (_, q) | Project (_, q) | Agg (_, _, q) | Distinct q | Coalesce q ->
        go q
    | Union (l, r) | Diff (l, r) ->
        go l;
        go r
    | Split (_, l, r) ->
        go l;
        if l != r then go r
    | Split_agg sa -> go sa.sa_child
  in
  go q;
  List.rev !out

(** Collapse stacked selections: [Select (p1, Select (p2, q))] becomes
    [Select (And (p2, p1), q)] (inner predicate first, matching the
    filter order of the stacked form; Kleene AND makes the filtered rows
    identical).  Stacked filters that bound the period columns separately
    fuse into one conjunction whose conjuncts carry both period bounds —
    the shape the vectorized engine's index selection recognizes.  Applied unconditionally:
    the plan shape does not depend on whether the index is enabled. *)
let rec merge_selects (q : Algebra.t) : Algebra.t =
  match q with
  | Rel _ | ConstRel _ -> q
  | Select (p, q) -> (
      match merge_selects q with
      | Select (p2, q') -> Select (Expr.And (p2, p), q')
      | q' -> Select (p, q'))
  | Project (ps, q) -> Project (ps, merge_selects q)
  | Join (p, l, r) -> Join (p, merge_selects l, merge_selects r)
  | Union (l, r) -> Union (merge_selects l, merge_selects r)
  | Diff (l, r) -> Diff (merge_selects l, merge_selects r)
  | Agg (g, a, q) -> Agg (g, a, merge_selects q)
  | Distinct q -> Distinct (merge_selects q)
  | Coalesce q -> Coalesce (merge_selects q)
  | Split (g, l, r) ->
      if l == r then
        let l' = merge_selects l in
        Split (g, l', l')
      else Split (g, merge_selects l, merge_selects r)
  | Split_agg sa -> Split_agg { sa with sa_child = merge_selects sa.sa_child }

(** The access path the vectorized engine will choose for each stored
    period table read through a selection — the [access=index|scan]
    decision of [Vexec.eval], precomputed for EXPLAIN.  Entries are
    [(table, "index" | "scan")] in plan order; tables read by a bare scan
    (no selection) are not listed. *)
let access ~(use_index : bool) ~(is_period : string -> bool)
    ~(lookup : string -> Schema.t) (q : Algebra.t) : (string * string) list =
  let out = ref [] in
  let add n v = out := (n, v) :: !out in
  let rec go (q : Algebra.t) =
    match q with
    | Rel _ | ConstRel _ -> ()
    | Select (p, Rel n) when is_period n ->
        let answerable =
          Option.is_some
            (Tkr_idx.Probe.bounds ~arity:(Schema.arity (lookup n)) p)
        in
        add n (if use_index && answerable then "index" else "scan")
    | Select (_, q) -> go q
    | Project (_, q) | Agg (_, _, q) | Distinct q | Coalesce q -> go q
    | Join (_, l, r) | Union (l, r) | Diff (l, r) ->
        go l;
        go r
    | Split (_, l, r) ->
        go l;
        if l != r then go r
    | Split_agg sa -> go sa.sa_child
  in
  go q;
  List.rev !out

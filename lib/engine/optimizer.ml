(** A cost-based logical optimizer: join-order selection by greedy
    cardinality estimation, plus selection pushdown through join trees.

    The paper observes (Section 10.4) that the alignment-based native
    approach "aligns both inputs with respect to each other \[which\]
    introduces unnecessary overhead and limits join reordering".  Our
    middleware rewrites snapshot queries into ordinary multiset algebra,
    so standard optimizations apply unchanged; this module provides them.

    The optimizer runs on the {e logical} query (before REWR) and is
    purely semantics-preserving: it never changes the multiset produced,
    which the differential tests in [test/test_optimizer.ml] verify on
    random queries. *)

open Tkr_relation

type stats = { card : string -> int }
(** Cardinality oracle for base relations (missing tables may raise; the
    estimator treats exceptions as a default size). *)

let default_card = 1000.

let rel_card stats n =
  match stats.card n with c -> float_of_int (max 1 c) | exception _ -> default_card

(* Crude but monotone cardinality estimation; only relative order
   matters for greedy join ordering. *)
let rec estimate (stats : stats) (q : Algebra.t) : float =
  match q with
  | Rel n -> rel_card stats n
  | ConstRel (_, ts) -> float_of_int (max 1 (List.length ts))
  | Select (p, q) ->
      let sel =
        match p with
        | Expr.Cmp (Expr.Eq, _, _) -> 0.1
        | Expr.And _ -> 0.05
        | _ -> 0.3
      in
      sel *. estimate stats q
  | Project (_, q) | Distinct q | Coalesce q -> estimate stats q
  | Join (p, l, r) ->
      let el = estimate stats l and er = estimate stats r in
      let keys, _ = Expr.equi_keys ~left_arity:10000 p in
      ignore keys;
      let sel =
        match p with
        | Expr.Const (Value.Bool true) -> 1.0
        | Expr.Cmp (Expr.Eq, _, _) | Expr.And (Expr.Cmp (Expr.Eq, _, _), _) -> 0.01
        | _ -> 0.1
      in
      el *. er *. sel
  | Union (l, r) -> estimate stats l +. estimate stats r
  | Diff (l, _) -> estimate stats l
  | Agg (group, _, q) ->
      if group = [] then 1.0 else Float.min (estimate stats q) 1000.
  | Split (_, l, _) -> 4. *. estimate stats l
  | Split_agg sa -> Float.min (4. *. estimate stats sa.sa_child) 10000.

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

(* Greedy join ordering: start from the smallest estimated item, then
   repeatedly add the item minimizing the estimated intermediate size,
   preferring items connected through an applicable conjunct. *)
let order_items stats (items : item list) (conjs : Expr.t list) : item list =
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
      let remaining = ref items and chosen = ref [] in
      let pick best =
        remaining := List.filter (fun i -> i != best) !remaining;
        chosen := !chosen @ [ best ]
      in
      (* seed: smallest estimated cardinality *)
      let seed =
        List.fold_left
          (fun best it ->
            if estimate stats it.alg < estimate stats best.alg then it else best)
          (List.hd items) items
      in
      pick seed;
      while !remaining <> [] do
        let score it =
          let connected =
            List.exists
              (fun c ->
                (not (covered_by !chosen c)) && covered_by (it :: !chosen) c)
              conjs
          in
          let e = estimate stats it.alg in
          if connected then e else e *. 1000.
        in
        let best =
          List.fold_left
            (fun best it -> if score it < score best then it else best)
            (List.hd !remaining) !remaining
        in
        pick best
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
    estimated cardinality, then apply the optional analysis-driven
    [prune] hook (supplied by the middleware from [Tkr_check.Absint];
    the engine does not depend on the checker).  Output multisets are
    identical to the input's on every database consistent with the
    schemas; [prune] must preserve rows {e and} their order. *)
let optimize ?(prune : (Algebra.t -> Algebra.t) option)
    ~(stats : stats) ~(lookup : string -> Schema.t) (q : Algebra.t) :
    Algebra.t =
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
            let ordered = order_items stats items conjs in
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

(** Abstract interpretation over plans: interval and multiplicity-shape
    inference, the TKR4xx diagnostic family, and analysis-driven pruning.

    A bottom-up interpreter over {!Tkr_relation.Algebra.t} with two
    cooperating abstract domains, justified by the paper's
    snapshot-reducibility of the rewritten period-encoded plans
    (Sections 8–9):

    - {e time bounds / value intervals}: every column of every subplan is
      bounded by an interval ({!Domain.Itv}); the trailing
      [Abegin]/[Aend] columns of period-encoded relations are seeded from
      the database's time bounds and refined through selections and joins
      by NULL-aware predicate analysis (a conjunct can only keep a row
      when it evaluates to TRUE, so a comparison both implies membership
      in the constraint interval and non-nullness).  Contradictory
      predicates prove subplans empty (TKR401/TKR406, and TKR402 for a
      whole plan), conjuncts already implied by the inferred bounds are
      redundant (TKR403), and selections admitting only degenerate
      periods ([Abegin >= Aend]) are reported (TKR407).
    - {e multiplicity shape}: duplicate-freeness and coalescedness are
      proved structurally, making [Distinct] (TKR404) and [Coalesce]
      (TKR405 — the paper's K-coalesce, Def. 8.2) provably idempotent.

    {!prune} consumes the proofs: provably-empty subplans collapse to
    empty constant relations, idempotent [Distinct]/[Coalesce] nodes are
    dropped, and one-sided unions/differences shed their empty operand.
    Every rule preserves {e byte identity} on well-typed plans: the
    pruned and unpruned plans produce the same rows in the same order
    (the soundness bar the differential tests enforce).  The analysis is
    purely structural — it never reads table contents, so its proofs stay
    valid for prepared plans across DML (the same staleness model as the
    rewriter's baked-in time bounds, guarded by the middleware epoch). *)

open Tkr_relation

type env = {
  lookup : Typecheck.lookup;  (** tolerant catalog *)
  is_period : string -> bool;
      (** base relations whose last two columns are the period encoding *)
  time_bounds : (int * int) option;
      (** [(tmin, tmax)]: every stored period endpoint lies within *)
  temporal : bool;
      (** analyzing a rewritten (period-encoded) plan: suppresses
          subsumption warnings on rewriter-generated predicates *)
}

let env ?(is_period = fun _ -> false) ?time_bounds ?(temporal = false)
    (lookup : Typecheck.lookup) : env =
  { lookup; is_period; time_bounds; temporal }

type fact = {
  schema : Schema.t option;  (** [None] when the subplan does not type *)
  empty : bool;  (** provably produces no rows *)
  cols : Domain.col array;
      (** per-column facts, positionally; [[||]] when unknown *)
  dup_free : bool;  (** provably duplicate-free *)
  coalesced : bool;
      (** [Coalesce] is provably the byte-identity on this output *)
  period : bool;  (** the last two columns are a period encoding *)
}

(* ---- predicate analysis ---- *)

(* [Col i op k] or [k op Col i], normalized to the column on the left *)
let col_cmp (e : Expr.t) : (int * Expr.cmp * int) option =
  let flip : Expr.cmp -> Expr.cmp = function
    | Expr.Lt -> Expr.Gt
    | Expr.Le -> Expr.Ge
    | Expr.Gt -> Expr.Lt
    | Expr.Ge -> Expr.Le
    | (Expr.Eq | Expr.Ne) as op -> op
  in
  match e with
  | Expr.Cmp (op, Expr.Col i, Expr.Const (Value.Int k)) -> Some (i, op, k)
  | Expr.Cmp (op, Expr.Const (Value.Int k), Expr.Col i) -> Some (i, flip op, k)
  | _ -> None

(* the interval a TRUE comparison confines the column to *)
let constraint_itv (op : Expr.cmp) (k : int) : Domain.Itv.t =
  match op with
  | Expr.Eq -> Domain.Itv.singleton k
  | Expr.Lt -> Domain.Itv.at_most (k - 1)
  | Expr.Le -> Domain.Itv.at_most k
  | Expr.Gt -> Domain.Itv.at_least (k + 1)
  | Expr.Ge -> Domain.Itv.at_least k
  | Expr.Ne -> Domain.Itv.top

type refined = {
  rcols : Domain.col array;
  unsat : bool;  (** the predicate can never evaluate to TRUE *)
  redundant : Expr.t list;
      (** conjuncts implied by the facts established before them *)
}

(* Fold the (constant-folded) conjuncts left-to-right into the column
   facts.  Sound in three-valued logic: a selection keeps a row only when
   the whole conjunction is TRUE, so every conjunct is TRUE, so a
   comparison against a constant both bounds the column and proves it
   non-null.  Unsatisfiability of any single column refutes the whole
   selection even for nullable columns (NULL rows yield UNKNOWN and are
   filtered anyway). *)
let refine (cols : Domain.col array) (pred : Expr.t) : refined =
  let cols = Array.copy cols in
  let n = Array.length cols in
  let unsat = ref false in
  let redundant = ref [] in
  List.iter
    (fun conjunct ->
      match conjunct with
      | Expr.Const (Value.Bool false) | Expr.Const Value.Null -> unsat := true
      | Expr.Is_null (Expr.Col i) when i < n ->
          if cols.(i).Domain.nonnull then unsat := true
      | Expr.Not (Expr.Is_null (Expr.Col i)) when i < n ->
          if cols.(i).Domain.nonnull then redundant := conjunct :: !redundant
          else cols.(i) <- { (cols.(i)) with Domain.nonnull = true }
      | Expr.In_list (Expr.Col i, vs)
        when i < n && vs <> []
             && List.for_all
                  (function Value.Int _ -> true | _ -> false)
                  vs ->
          let hull =
            List.fold_left
              (fun acc v ->
                match v with
                | Value.Int k -> Domain.Itv.join acc (Domain.Itv.singleton k)
                | _ -> acc)
              Domain.Itv.bot vs
          in
          cols.(i) <-
            { Domain.itv = Domain.Itv.meet cols.(i).Domain.itv hull;
              nonnull = true }
      | conjunct -> (
          match col_cmp conjunct with
          | Some (i, Expr.Ne, k) when i < n ->
              let cur = cols.(i) in
              if cur.Domain.itv = Domain.Itv.singleton k then unsat := true
              else if
                cur.Domain.nonnull && not (Domain.Itv.mem k cur.Domain.itv)
              then redundant := conjunct :: !redundant;
              cols.(i) <- { cur with Domain.nonnull = true }
          | Some (i, op, k) when i < n ->
              let cur = cols.(i) in
              let c = constraint_itv op k in
              if cur.Domain.nonnull && Domain.Itv.subset cur.Domain.itv c then
                redundant := conjunct :: !redundant;
              cols.(i) <-
                { Domain.itv = Domain.Itv.meet cur.Domain.itv c;
                  nonnull = true }
          | _ -> ()))
    (Expr.conjuncts (Simplify.fold_expr pred));
  {
    rcols = cols;
    unsat = !unsat || Array.exists Domain.col_impossible cols;
    redundant = List.rev !redundant;
  }

(* abstract value of a projection/grouping expression *)
let rec expr_fact (cols : Domain.col array) (e : Expr.t) : Domain.col =
  match e with
  | Expr.Col i when i < Array.length cols -> cols.(i)
  | Expr.Const (Value.Int k) ->
      { Domain.itv = Domain.Itv.singleton k; nonnull = true }
  | Expr.Const Value.Null -> Domain.col_top
  | Expr.Const _ -> { Domain.col_top with Domain.nonnull = true }
  | Expr.Greatest (a, b) ->
      let fa = expr_fact cols a and fb = expr_fact cols b in
      {
        Domain.itv =
          {
            Domain.Itv.lo = Domain.Itv.max_lo fa.Domain.itv.Domain.Itv.lo fb.Domain.itv.Domain.Itv.lo;
            hi = Domain.Itv.max_hi fa.Domain.itv.Domain.Itv.hi fb.Domain.itv.Domain.Itv.hi;
          };
        nonnull = fa.Domain.nonnull && fb.Domain.nonnull;
      }
  | Expr.Least (a, b) ->
      let fa = expr_fact cols a and fb = expr_fact cols b in
      {
        Domain.itv =
          {
            Domain.Itv.lo = Domain.Itv.min_lo fa.Domain.itv.Domain.Itv.lo fb.Domain.itv.Domain.Itv.lo;
            hi = Domain.Itv.min_hi fa.Domain.itv.Domain.Itv.hi fb.Domain.itv.Domain.Itv.hi;
          };
        nonnull = fa.Domain.nonnull && fb.Domain.nonnull;
      }
  | _ -> Domain.col_top

(* abstract value of an aggregate output; groups are never empty, but any
   aggregate except count can still be NULL (all-NULL group), and a
   gap-covering split-aggregate emits count 0 / NULL for gaps *)
let agg_fact (cols : Domain.col array) (f : Agg.func) : Domain.col =
  match f with
  | Agg.Count_star | Agg.Count _ ->
      { Domain.itv = Domain.Itv.at_least 0; nonnull = true }
  | Agg.Min (Expr.Col i) | Agg.Max (Expr.Col i) when i < Array.length cols ->
      { (cols.(i)) with Domain.nonnull = false }
  | _ -> Domain.col_top

(* ---- seeding ---- *)

let seed_rel (env : env) (name : string) (s : Schema.t) : Domain.col array =
  let n = Schema.arity s in
  let period = env.is_period name in
  Array.init n (fun i ->
      if period && i >= n - 2 then
        match env.time_bounds with
        | Some (tmin, tmax) ->
            { Domain.itv = Domain.Itv.of_bounds tmin tmax; nonnull = true }
        | None -> { Domain.col_top with Domain.nonnull = true }
      else Domain.col_top)

let seed_const (s : Schema.t) (ts : Tuple.t list) : Domain.col array =
  Array.init (Schema.arity s) (fun i ->
      List.fold_left
        (fun (c : Domain.col) t ->
          match Tuple.get t i with
          | Value.Int k ->
              { c with Domain.itv = Domain.Itv.join c.Domain.itv (Domain.Itv.singleton k) }
          | Value.Null -> { c with Domain.nonnull = false }
          | _ -> { c with Domain.itv = Domain.Itv.top })
        { Domain.itv = Domain.Itv.bot; nonnull = true }
        ts)

(* ---- rendering ---- *)

let label (q : Algebra.t) : string =
  match q with
  | Algebra.Rel n -> n
  | ConstRel (_, ts) -> Printf.sprintf "const[%d rows]" (List.length ts)
  | Select (p, _) -> Format.asprintf "σ[%a]" Expr.pp p
  | Project (ps, _) -> Printf.sprintf "Π[%d cols]" (List.length ps)
  | Join _ -> "⋈"
  | Union _ -> "∪"
  | Diff _ -> "−"
  | Agg (g, a, _) ->
      Printf.sprintf "γ[%d group%s; %d agg%s]" (List.length g)
        (if List.length g = 1 then "" else "s")
        (List.length a)
        (if List.length a = 1 then "" else "s")
  | Distinct _ -> "δ"
  | Coalesce _ -> "C"
  | Split (g, _, _) ->
      Format.asprintf "N[%a]" Fmt.(list ~sep:(any ",") int) g
  | Split_agg sa ->
      Printf.sprintf "Nγ[%d group%s; %d agg%s%s]" (List.length sa.sa_group)
        (if List.length sa.sa_group = 1 then "" else "s")
        (List.length sa.sa_aggs)
        (if List.length sa.sa_aggs = 1 then "" else "s")
        (match sa.sa_gap with Some _ -> "; gaps" | None -> "")

(* the inferred time window [Abegin.lo, Aend.hi) of a period-encoded
   output, when either bound is known *)
let time_window (f : fact) : (int option * int option) option =
  if not f.period then None
  else
    match f.schema with
    | Some s when Schema.arity s >= 2 && Array.length f.cols = Schema.arity s
      ->
        let n = Schema.arity s in
        let lo = f.cols.(n - 2).Domain.itv.Domain.Itv.lo in
        let hi = f.cols.(n - 1).Domain.itv.Domain.Itv.hi in
        if lo = None && hi = None then None else Some (lo, hi)
    | _ -> None

let annot (f : fact) : string =
  let parts = ref [] in
  let add s = parts := s :: !parts in
  (match time_window f with
  | Some (lo, hi) ->
      let b inf = function Some k -> string_of_int k | None -> inf in
      add (Printf.sprintf "time=[%s,%s)" (b "-inf" lo) (b "+inf" hi))
  | None -> ());
  if f.empty then add "empty";
  if f.dup_free then add "dup-free";
  if f.coalesced then add "coalesced";
  match List.rev !parts with
  | [] -> ""
  | ps -> "  " ^ String.concat " " ps

(* ---- the interpreter ---- *)

type out = {
  fact : fact;
  pruned : Algebra.t;
  diags : Diagnostic.t list;  (** bottom-up, children first *)
  lines : (int * string) list;
      (** depth-tagged render of the original, built only for {!render} *)
}

(* degenerate encoding: every surviving row would need Abegin >= Aend *)
let degenerate_period (f : fact) : bool =
  f.period
  && (match f.schema with
     | Some s ->
         let n = Schema.arity s in
         n >= 2
         && Array.length f.cols = n
         && (match
               ( f.cols.(n - 2).Domain.itv.Domain.Itv.lo,
                 f.cols.(n - 1).Domain.itv.Domain.Itv.hi )
             with
            | Some bl, Some eh -> bl >= eh
            | _ -> false)
     | None -> false)

(* keep [want]'s output names when replacing a union by its surviving
   operand (the engine takes a union's schema from the left side) *)
let rename_like (want : Schema.t option) (have : Schema.t option)
    (q : Algebra.t) : Algebra.t option =
  match (want, have) with
  | Some w, Some h when Schema.equal w h -> Some q
  | Some w, Some h when Schema.arity w = Schema.arity h ->
      Some
        (Algebra.Project
           ( List.mapi
               (fun i (a : Schema.attr) -> Algebra.proj (Expr.Col i) a.name)
               (Schema.attrs w),
             q ))
  | _ -> None

(* finish one node: apply the provably-empty collapse, emit its render
   line above its children's *)
let node ~render (q : Algebra.t) (fact : fact) (pruned : Algebra.t)
    (diags : Diagnostic.t list) (kids_lines : (int * string) list) : out =
  let pruned =
    if fact.empty then
      match (fact.schema, pruned) with
      | _, Algebra.ConstRel (_, []) -> pruned
      | Some s, _ -> Algebra.ConstRel (s, [])
      | None, _ -> pruned
    else pruned
  in
  {
    fact;
    pruned;
    diags;
    lines =
      (if render then
         (0, label q ^ annot fact)
         :: List.map (fun (d, s) -> (d + 1, s)) kids_lines
       else []);
  }

let rec go ~render (env : env) (q : Algebra.t) : out =
  let sch = Typecheck.schema_of ~lookup:env.lookup q in
  match q with
  | Algebra.Rel name ->
      let cols =
        match sch with Some s -> seed_rel env name s | None -> [||]
      in
      node ~render q
        { schema = sch; empty = false; cols; dup_free = false;
          coalesced = false; period = env.is_period name }
        q [] []
  | ConstRel (s, ts) ->
      let dup_free =
        List.length (List.sort_uniq Tuple.compare ts) = List.length ts
      in
      node ~render q
        { schema = Some s; empty = ts = []; cols = seed_const s ts; dup_free;
          coalesced = ts = []; period = false }
        q [] []
  | Select (p, q0) ->
      let c = go ~render env q0 in
      let f0 = c.fact in
      let r = refine f0.cols p in
      let data_only =
        match sch with
        | Some s ->
            List.for_all (fun i -> i < Schema.arity s - 2) (Expr.cols p)
        | None -> false
      in
      let fact =
        { schema = sch; empty = f0.empty || r.unsat; cols = r.rcols;
          dup_free = f0.dup_free; coalesced = f0.coalesced && data_only;
          period = f0.period }
      in
      let own =
        if f0.empty then []
        else if r.unsat then
          [
            Diagnostic.warning "TKR401"
              ~hint:"the predicate can never evaluate to TRUE, so the \
                     selection returns no rows"
              "selection predicate %a is unsatisfiable" Expr.pp p;
          ]
        else
          (if env.temporal then []
           else
             List.map
               (fun conjunct ->
                 Diagnostic.warning "TKR403"
                   ~hint:"the conjunct is implied by the inferred value \
                          bounds and can be dropped"
                   "selection conjunct %a is redundant" Expr.pp conjunct)
               r.redundant)
          @
          if degenerate_period fact && not (degenerate_period f0) then
            [
              Diagnostic.warning "TKR407"
                ~hint:"the inferred bounds force Abegin >= Aend, which no \
                       stored period satisfies"
                "selection %a admits only degenerate periods" Expr.pp p;
            ]
          else []
      in
      node ~render q fact (Algebra.Select (p, c.pruned)) (c.diags @ own) c.lines
  | Project (ps, q0) ->
      let c = go ~render env q0 in
      let f0 = c.fact in
      let cols =
        Array.of_list
          (List.map (fun (p : Algebra.proj) -> expr_fact f0.cols p.expr) ps)
      in
      let covers_child =
        f0.dup_free
        &&
        match f0.schema with
        | Some s ->
            let bare =
              List.filter_map
                (fun (p : Algebra.proj) ->
                  match p.expr with Expr.Col i -> Some i | _ -> None)
                ps
            in
            List.for_all
              (fun i -> List.mem i bare)
              (List.init (Schema.arity s) Fun.id)
        | None -> false
      in
      let period =
        f0.period
        &&
        match f0.schema with
        | Some s -> (
            let nc = Schema.arity s in
            match List.rev ps with
            | pe :: pb :: _ ->
                pb.Algebra.expr = Expr.Col (nc - 2)
                && pe.Algebra.expr = Expr.Col (nc - 1)
            | _ -> false)
        | None -> false
      in
      node ~render q
        { schema = sch; empty = f0.empty; cols; dup_free = covers_child;
          coalesced = false; period }
        (Algebra.Project (ps, c.pruned))
        c.diags c.lines
  | Join (p, l, r) ->
      let lo = go ~render env l and ro = go ~render env r in
      let fl = lo.fact and fr = ro.fact in
      let cols0 =
        match (fl.schema, fr.schema) with
        | Some sl, Some sr
          when Array.length fl.cols = Schema.arity sl
               && Array.length fr.cols = Schema.arity sr ->
            Array.append fl.cols fr.cols
        | _ -> [||]
      in
      let rf = refine cols0 p in
      let sides_empty = fl.empty || fr.empty in
      let own =
        if rf.unsat && not sides_empty then
          [
            Diagnostic.warning "TKR406"
              ~hint:"the predicate can never evaluate to TRUE, so the join \
                     produces no rows"
              "join predicate %a is unsatisfiable" Expr.pp p;
          ]
        else []
      in
      node ~render q
        { schema = sch; empty = sides_empty || rf.unsat; cols = rf.rcols;
          dup_free = fl.dup_free && fr.dup_free; coalesced = false;
          period = fr.period }
        (Algebra.Join (p, lo.pruned, ro.pruned))
        (lo.diags @ ro.diags @ own)
        (lo.lines @ ro.lines)
  | Union (l, r) ->
      let lo = go ~render env l and ro = go ~render env r in
      let fl = lo.fact and fr = ro.fact in
      let fact =
        if fl.empty then { fr with schema = sch }
        else if fr.empty then { fl with schema = sch }
        else
          let cols =
            if
              Array.length fl.cols > 0
              && Array.length fl.cols = Array.length fr.cols
            then Array.map2 Domain.col_join fl.cols fr.cols
            else [||]
          in
          { schema = sch; empty = false; cols; dup_free = false;
            coalesced = false; period = fl.period && fr.period }
      in
      let pruned =
        if fl.empty && not fr.empty then
          match rename_like sch fr.schema ro.pruned with
          | Some p -> p
          | None -> Algebra.Union (lo.pruned, ro.pruned)
        else if fr.empty && not fl.empty then lo.pruned
        else Algebra.Union (lo.pruned, ro.pruned)
      in
      node ~render q fact pruned (lo.diags @ ro.diags) (lo.lines @ ro.lines)
  | Diff (l, r) ->
      let lo = go ~render env l and ro = go ~render env r in
      let fl = lo.fact and fr = ro.fact in
      let pruned =
        if fr.empty then lo.pruned
        else Algebra.Diff (lo.pruned, ro.pruned)
      in
      node ~render q
        { schema = sch; empty = fl.empty; cols = fl.cols;
          dup_free = fl.dup_free; coalesced = fl.coalesced && fr.empty;
          period = fl.period }
        pruned (lo.diags @ ro.diags) (lo.lines @ ro.lines)
  | Agg (group, aggs, q0) ->
      let c = go ~render env q0 in
      let f0 = c.fact in
      let gcols =
        List.map (fun (p : Algebra.proj) -> expr_fact f0.cols p.expr) group
      in
      let acols =
        List.map
          (fun (a : Algebra.agg_spec) -> agg_fact f0.cols a.func)
          aggs
      in
      node ~render q
        { schema = sch;
          (* aggregation without GROUP BY yields one row even on empty
             input, so emptiness only propagates through grouped forms *)
          empty = f0.empty && group <> [];
          cols = Array.of_list (gcols @ acols); dup_free = true;
          coalesced = false; period = false }
        (Algebra.Agg (group, aggs, c.pruned))
        c.diags c.lines
  | Distinct q0 ->
      let c = go ~render env q0 in
      let f0 = c.fact in
      let own =
        if f0.dup_free && not f0.empty then
          [
            Diagnostic.warning "TKR404"
              ~hint:"the input is provably duplicate-free, so DISTINCT is \
                     a no-op"
              "DISTINCT over provably duplicate-free input";
          ]
        else []
      in
      if f0.dup_free then node ~render q f0 c.pruned (c.diags @ own) c.lines
      else
        node ~render q
          { f0 with schema = sch; dup_free = true; coalesced = false }
          (Algebra.Distinct c.pruned)
          (c.diags @ own) c.lines
  | Coalesce q0 ->
      let c = go ~render env q0 in
      let f0 = c.fact in
      let own =
        if f0.coalesced && not f0.empty then
          [
            Diagnostic.warning "TKR405"
              ~hint:"the input is provably coalesced (Def. 8.2), so \
                     COALESCE is a no-op"
              "COALESCE over provably coalesced input";
          ]
        else []
      in
      if f0.coalesced then node ~render q f0 c.pruned (c.diags @ own) c.lines
      else
        node ~render q
          { schema = sch; empty = f0.empty; cols = f0.cols; dup_free = false;
            coalesced = true; period = true }
          (Algebra.Coalesce c.pruned)
          (c.diags @ own) c.lines
  | Split (g, l, r) ->
      let lo = go ~render env l in
      let ro = if r == l then lo else go ~render env r in
      let fl = lo.fact in
      let cols =
        (* fragments stay within the original interval, so both endpoint
           columns lie in the left input's [Abegin.lo, Aend.hi] window *)
        let n = Array.length fl.cols in
        if fl.period && n >= 2 then (
          let w =
            {
              Domain.Itv.lo = fl.cols.(n - 2).Domain.itv.Domain.Itv.lo;
              hi = fl.cols.(n - 1).Domain.itv.Domain.Itv.hi;
            }
          in
          let a = Array.copy fl.cols in
          a.(n - 2) <- { (a.(n - 2)) with Domain.itv = w };
          a.(n - 1) <- { (a.(n - 1)) with Domain.itv = w };
          a)
        else fl.cols
      in
      let pruned =
        if r == l then
          let l' = lo.pruned in
          Algebra.Split (g, l', l')
        else Algebra.Split (g, lo.pruned, ro.pruned)
      in
      node ~render q
        { schema = sch; empty = fl.empty; cols; dup_free = false;
          coalesced = false; period = fl.period }
        pruned
        (if r == l then lo.diags else lo.diags @ ro.diags)
        (lo.lines @ ro.lines)
  | Split_agg sa ->
      let c = go ~render env sa.sa_child in
      let f0 = c.fact in
      let window =
        let base =
          let n = Array.length f0.cols in
          if f0.period && n >= 2 then
            {
              Domain.Itv.lo = f0.cols.(n - 2).Domain.itv.Domain.Itv.lo;
              hi = f0.cols.(n - 1).Domain.itv.Domain.Itv.hi;
            }
          else Domain.Itv.top
        in
        match sa.sa_gap with
        | Some (tmin, tmax) ->
            Domain.Itv.join base (Domain.Itv.of_bounds tmin tmax)
        | None -> base
      in
      let gcols =
        List.map
          (fun i ->
            if i < Array.length f0.cols then f0.cols.(i) else Domain.col_top)
          sa.sa_group
      in
      let acols =
        List.map
          (fun (a : Algebra.agg_spec) -> agg_fact f0.cols a.func)
          sa.sa_aggs
      in
      let pcol = { Domain.itv = window; nonnull = true } in
      node ~render q
        { schema = sch;
          (* a gap-covering split-aggregate emits rows over the whole
             domain even on empty input *)
          empty = f0.empty && sa.sa_gap = None;
          cols = Array.of_list (gcols @ acols @ [ pcol; pcol ]);
          dup_free = true; coalesced = false; period = true }
        (Algebra.Split_agg { sa with sa_child = c.pruned })
        c.diags c.lines

(* ---- public API ---- *)

(* the root fact and the diagnostics of one walk: TKR402 is appended
   when the whole plan is provably empty *)
let diagnostics (o : out) : Diagnostic.t list =
  if o.fact.empty then
    o.diags
    @ [
        Diagnostic.warning "TKR402"
          ~hint:"a contradictory predicate or empty operand makes the \
                 whole plan empty"
          "query provably returns no rows";
      ]
  else o.diags

let analyze (env : env) (q : Algebra.t) : fact * Diagnostic.t list =
  let o = go ~render:false env q in
  (o.fact, diagnostics o)

let diagnose (env : env) (q : Algebra.t) : Diagnostic.t list =
  snd (analyze env q)

let prune (env : env) (q : Algebra.t) : Algebra.t = (go ~render:false env q).pruned

let check (env : env) (q : Algebra.t) : Diagnostic.t list * Algebra.t =
  let o = go ~render:false env q in
  (diagnostics o, o.pruned)

let render (env : env) (q : Algebra.t) : string =
  let o = go ~render:true env q in
  String.concat "\n"
    (List.map (fun (d, s) -> String.make (2 * d) ' ' ^ s) o.lines)

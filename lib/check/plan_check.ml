(** Pass 2: plan-invariant validation.

    Enforces the documented-but-previously-unchecked encoding contracts of
    {!Tkr_relation.Algebra} and the paper's Section 8:

    - logical plans contain no physical operators ([Coalesce], [Split],
      [Split_agg]) — those only appear after REWR (TKR201);
    - every operator of a rewritten (physical) plan produces the period
      encoding: at least two columns, the last two int-typed [__b]/[__e]
      (TKR202) — except the literal aggregation γ_{G∪{B,E}} of Fig. 4,
      whose enclosing projection restores the encoding and is checked
      in its place;
    - [Split]/[Split_agg] group indices reference data columns, never the
      period columns (TKR203);
    - a rewritten [Diff] takes mirrored split pairs
      [Diff (N_G(l, r), N_G(r, l))] so both sides are aligned on the same
      elementary intervals before the bag difference (TKR204);
    - a rewritten [Agg]/[Distinct] consumes endpoint-split input (TKR205);
    - the plan's root must coalesce, otherwise the output encoding is not
      unique (TKR206, warning);
    - an ungrouped [Split_agg] must carry [sa_gap = Some _] to cover the
      whole time domain — the paper's AG fix, Section 6 — and a grouped
      one must not: gap rows exist only for the empty group (TKR207). *)

open Tkr_relation

let physical_op_name : Algebra.t -> string option = function
  | Algebra.Coalesce _ -> Some "Coalesce"
  | Algebra.Split _ -> Some "Split"
  | Algebra.Split_agg _ -> Some "Split_agg"
  | _ -> None

(** Check a logical (pre-rewrite) plan: physical operators must not
    appear (TKR201). *)
let logical (q : Algebra.t) : Diagnostic.t list =
  let diags = ref [] in
  let rec go q =
    (match physical_op_name q with
    | Some op ->
        diags :=
          Diagnostic.error "TKR201"
            ~hint:"physical operators are introduced by the REWR rewrite only"
            "operator %s appears in a logical plan" op
          :: !diags
    | None -> ());
    match (q : Algebra.t) with
    | Rel _ | ConstRel _ -> ()
    | Select (_, q0) | Project (_, q0) | Distinct q0 | Coalesce q0 -> go q0
    | Join (_, l, r) | Union (l, r) | Diff (l, r) | Split (_, l, r) ->
        go l;
        go r
    | Agg (_, _, q0) -> go q0
    | Split_agg sa -> go sa.sa_child
  in
  go q;
  List.rev !diags

(* Does this node type's output end with two int period columns? *)
let encoded (s : Schema.t) =
  let n = Schema.arity s in
  n >= 2 && Schema.ty s (n - 2) = Value.TInt && Schema.ty s (n - 1) = Value.TInt

let op_label (q : Algebra.t) : string =
  match q with
  | Rel n -> Printf.sprintf "relation %s" n
  | ConstRel _ -> "constant relation"
  | Select _ -> "selection"
  | Project _ -> "projection"
  | Join _ -> "join"
  | Union _ -> "union"
  | Diff _ -> "difference"
  | Agg _ -> "aggregation"
  | Distinct _ -> "distinct"
  | Coalesce _ -> "coalesce"
  | Split _ -> "split"
  | Split_agg _ -> "split-aggregate"

(** Check a rewritten (physical) plan over the period encoding:
    TKR202–TKR207.  [lookup] must give the *encoded* base-table schemas
    (data columns plus [__b]/[__e]). *)
let physical ~(lookup : Typecheck.lookup) (q : Algebra.t) : Diagnostic.t list =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let schema q = Typecheck.schema_of ~lookup q in
  let check_encoded q =
    match schema q with
    | None -> () (* unknown relation somewhere below: reported by pass 1 *)
    | Some s ->
        if not (encoded s) then
          add
            (Diagnostic.error "TKR202"
               ~hint:
                 "encoded relations carry their period as the last two int \
                  columns __b/__e"
               "%s output %a does not end with two int period columns"
               (op_label q) Schema.pp s)
  in
  (* The literal (non-fused) aggregation of Fig. 4 groups by G ∪ {B, E}:
     its own output carries the period among the group columns, and the
     projection above it restores the trailing-__b/__e encoding (which
     check_encoded enforces on that projection). *)
  let literal_agg (q : Algebra.t) =
    match q with
    | Agg (gs, _, (Split _ as child)) -> (
        match schema child with
        | None -> false
        | Some s ->
            let n = Schema.arity s in
            let has c =
              List.exists (fun (p : Algebra.proj) -> p.expr = Expr.Col c) gs
            in
            has (n - 2) && has (n - 1))
    | _ -> false
  in
  let check_group ~what ~child group =
    match schema child with
    | None -> ()
    | Some s ->
        (* group columns must be data columns: [0, arity - 2) *)
        let limit = Schema.arity s - 2 in
        List.iter
          (fun i ->
            if i < 0 || i >= limit then
              add
                (Diagnostic.error "TKR203"
                   "%s group index %d out of data-column range [0,%d)" what i
                   limit))
          group
  in
  let rec go (q : Algebra.t) =
    if not (literal_agg q) then check_encoded q;
    match q with
    | Rel _ | ConstRel _ -> ()
    | Select (_, q0) | Project (_, q0) | Coalesce q0 -> go q0
    | Join (_, l, r) | Union (l, r) ->
        go l;
        go r
    | Diff (l, r) ->
        (match (l, r) with
        | Split (gl, a, b), Split (gr, b', a')
          when gl = gr && a = a' && b = b' ->
            ()
        | _ ->
            add
              (Diagnostic.error "TKR204"
                 ~hint:
                   "rewrite R − S as Diff (N_G(R, S), N_G(S, R)) so both \
                    sides are split at the same endpoints (Fig. 4)"
                 "difference operands are not mirrored split pairs"));
        go l;
        go r
    | Agg (_, _, q0) ->
        (match q0 with
        | Split _ -> ()
        | _ ->
            add
              (Diagnostic.error "TKR205"
                 ~hint:
                   "a rewritten aggregation consumes N_G-split input so every \
                    elementary interval aggregates whole tuples (Fig. 4)"
                 "aggregation input is not endpoint-split"));
        go q0
    | Distinct q0 ->
        (match q0 with
        | Split _ -> ()
        | _ ->
            add
              (Diagnostic.error "TKR205"
                 ~hint:
                   "a rewritten DISTINCT consumes N_G(Q, Q)-split input \
                    (Fig. 4)"
                 "distinct input is not endpoint-split"));
        go q0
    | Split (g, l, r) ->
        check_group ~what:"split" ~child:l g;
        go l;
        go r
    | Split_agg sa ->
        check_group ~what:"split-aggregate" ~child:sa.sa_child sa.sa_group;
        (match (sa.sa_group, sa.sa_gap) with
        | [], None ->
            add
              (Diagnostic.error "TKR207"
                 ~hint:
                   "ungrouped aggregation must produce rows over gaps \
                    (sa_gap = Some (tmin, tmax)); see Section 6 on the AG bug"
                 "ungrouped split-aggregate does not cover the time domain")
        | _ :: _, Some _ ->
            add
              (Diagnostic.error "TKR207"
                 ~hint:
                   "a grouped aggregation has no row over a gap (no group \
                    exists there); only ungrouped aggregation sets sa_gap"
                 "grouped split-aggregate carries a gap")
        | _ -> ());
        go sa.sa_child
  in
  go q;
  (match q with
  | Algebra.Coalesce _ -> ()
  | _ ->
      add
        (Diagnostic.warning "TKR206"
           ~hint:
             "wrap the plan in Coalesce: only K-coalesced output encodings \
              are unique (Def. 8.2)"
           "plan root is not a coalesce: output encoding may not be unique"));
  List.rev !diags

(** The logical relational algebra AST shared by all evaluation levels.

    One AST, four evaluators: plain K-relations ({!Eval}), pointwise
    snapshot evaluation (abstract model, [tkr_snapshot]), period
    K-relations (logical model, [tkr_core]) and — after rewriting REWR —
    the physical engine over the period encoding ([tkr_engine]).

    [Coalesce] and [Split] only appear in rewritten queries over the period
    encoding (Section 8); they follow the convention that the last two
    columns of an encoded relation are [Abegin] and [Aend]. *)

type proj = { expr : Expr.t; name : string }

type agg_spec = { func : Agg.func; agg_name : string }

type t =
  | Rel of string
  | ConstRel of Schema.t * Tuple.t list
  | Select of Expr.t * t
  | Project of proj list * t
  | Join of Expr.t * t * t
  | Union of t * t
  | Diff of t * t  (** bag difference (EXCEPT ALL) / monus *)
  | Agg of proj list * agg_spec list * t
      (** group-by expressions, aggregate functions *)
  | Distinct of t
  | Coalesce of t
      (** K-coalesce the period encoding on all data columns (Def. 8.2) *)
  | Split of int list * t * t
      (** N_G(R1, R2): split R1's intervals at the endpoints of tuples of
          R1 ∪ R2 agreeing on the given group columns (Def. 8.3) *)
  | Split_agg of split_agg

and split_agg = {
  sa_group : int list;  (** grouping columns (data positions) *)
  sa_aggs : agg_spec list;  (** aggregates over the child's columns *)
  sa_gap : (int * int) option;
      (** [Some (tmin, tmax)]: cover the whole domain, producing rows over
          gaps (aggregation without GROUP BY); [None] for grouped
          aggregation *)
  sa_child : t;
}
(** The fused split-and-aggregate operator produced by the optimized
    rewriting (Section 9): the input is pre-aggregated per (group,
    interval), the pre-aggregates are split at the group's endpoints and
    combined per elementary segment.  Output columns: group columns,
    aggregate results, [Abegin], [Aend]. *)

exception Unsupported of string

let proj expr name = { expr; name }

(* Identity projection columns for a schema range. *)
let cols_proj schema lo hi =
  let rec go i acc =
    if i < lo then acc
    else go (i - 1) ({ expr = Expr.Col i; name = Schema.name schema i } :: acc)
  in
  go (hi - 1) []

let rec schema_of ~(lookup : string -> Schema.t) (q : t) : Schema.t =
  match q with
  | Rel n -> lookup n
  | ConstRel (s, _) -> s
  | Select (_, q) -> schema_of ~lookup q
  | Project (projs, q) ->
      let s = schema_of ~lookup q in
      Schema.make
        (List.map (fun p -> Schema.attr p.name (Expr.infer_ty s p.expr)) projs)
  | Join (_, l, r) -> Schema.concat (schema_of ~lookup l) (schema_of ~lookup r)
  | Union (l, _) -> schema_of ~lookup l
  | Diff (l, _) -> schema_of ~lookup l
  | Agg (group, aggs, q) ->
      let s = schema_of ~lookup q in
      let gattrs =
        List.map (fun p -> Schema.attr p.name (Expr.infer_ty s p.expr)) group
      in
      let aattrs =
        List.map (fun a -> Schema.attr a.agg_name (Agg.output_ty s a.func)) aggs
      in
      Schema.make (gattrs @ aattrs)
  | Distinct q -> schema_of ~lookup q
  | Coalesce q -> schema_of ~lookup q
  | Split (_, l, _) -> schema_of ~lookup l
  | Split_agg sa ->
      let s = schema_of ~lookup sa.sa_child in
      let gattrs = List.map (fun i -> Schema.get s i) sa.sa_group in
      let aattrs =
        List.map
          (fun (a : agg_spec) -> Schema.attr a.agg_name (Agg.output_ty s a.func))
          sa.sa_aggs
      in
      Schema.make
        (gattrs @ aattrs
        @ [ Schema.attr "__b" Value.TInt; Schema.attr "__e" Value.TInt ])

let rec pp ppf (q : t) =
  match q with
  | Rel n -> Format.fprintf ppf "%s" n
  | ConstRel (s, ts) ->
      Format.fprintf ppf "const%a[%d rows]" Schema.pp s (List.length ts)
  | Select (p, q) -> Format.fprintf ppf "@[<hv 2>σ[%a](@,%a)@]" Expr.pp p pp q
  | Project (projs, q) ->
      Format.fprintf ppf "@[<hv 2>Π[%a](@,%a)@]"
        Fmt.(
          list ~sep:(any ", ") (fun ppf p ->
              Format.fprintf ppf "%a as %s" Expr.pp p.expr p.name))
        projs pp q
  | Join (p, l, r) ->
      Format.fprintf ppf "@[<hv 2>(%a@ ⋈[%a]@ %a)@]" pp l Expr.pp p pp r
  | Union (l, r) -> Format.fprintf ppf "@[<hv 2>(%a@ ∪@ %a)@]" pp l pp r
  | Diff (l, r) -> Format.fprintf ppf "@[<hv 2>(%a@ −@ %a)@]" pp l pp r
  | Agg (group, aggs, q) ->
      Format.fprintf ppf "@[<hv 2>γ[%a; %a](@,%a)@]"
        Fmt.(list ~sep:(any ", ") (fun ppf p -> Expr.pp ppf p.expr))
        group
        Fmt.(
          list ~sep:(any ", ") (fun ppf a ->
              Format.fprintf ppf "%a as %s" Agg.pp a.func a.agg_name))
        aggs pp q
  | Distinct q -> Format.fprintf ppf "@[<hv 2>δ(@,%a)@]" pp q
  | Coalesce q -> Format.fprintf ppf "@[<hv 2>C(@,%a)@]" pp q
  | Split (g, l, r) ->
      Format.fprintf ppf "@[<hv 2>N[%a](@,%a,@ %a)@]"
        Fmt.(list ~sep:(any ",") int)
        g pp l pp r
  | Split_agg sa ->
      Format.fprintf ppf "@[<hv 2>Nγ[%a; %a%s](@,%a)@]"
        Fmt.(list ~sep:(any ",") int)
        sa.sa_group
        Fmt.(
          list ~sep:(any ", ") (fun ppf a ->
              Format.fprintf ppf "%a as %s" Agg.pp a.func a.agg_name))
        sa.sa_aggs
        (match sa.sa_gap with Some _ -> "; gaps" | None -> "")
        pp sa.sa_child

let to_string q = Format.asprintf "%a" pp q

(* ---- the plan as a key ---- *)

(* Every node writes a tag byte, then its fields: an int as 8 bytes, a
   string as its length and bytes, a list as its length and items, so
   no two distinct plans write the same bytes. *)
let add_int buf i = Buffer.add_int64_le buf (Int64.of_int i)

let add_str buf s =
  add_int buf (String.length s);
  Buffer.add_string buf s

let add_list buf f l =
  add_int buf (List.length l);
  List.iter f l

let add_value buf (v : Value.t) =
  match v with
  | Null -> Buffer.add_char buf 'N'
  | Bool b -> Buffer.add_char buf (if b then 'T' else 'F')
  | Int i ->
      Buffer.add_char buf 'I';
      add_int buf i
  | Float f ->
      Buffer.add_char buf 'D';
      Buffer.add_int64_le buf (Int64.bits_of_float f)
  | Str s ->
      Buffer.add_char buf 'S';
      add_str buf s

let rec add_expr buf (e : Expr.t) =
  (* a tag, then the subexpressions *)
  let node tag subs =
    Buffer.add_string buf tag;
    List.iter (add_expr buf) subs
  in
  match e with
  | Col i -> node "c" []; add_int buf i
  | Const v -> node "k" []; add_value buf v
  | Binop (op, a, b) ->
      node (match op with Add -> "b+" | Sub -> "b-" | Mul -> "b*" | Div -> "b/" | Mod -> "b%") [ a; b ]
  | Neg a -> node "n" [ a ]
  | Cmp (op, a, b) ->
      node (match op with Eq -> "p=" | Ne -> "p!" | Lt -> "p<" | Le -> "pl" | Gt -> "p>" | Ge -> "pg") [ a; b ]
  | And (a, b) -> node "&" [ a; b ]
  | Or (a, b) -> node "|" [ a; b ]
  | Not a -> node "~" [ a ]
  | Is_null a -> node "0" [ a ]
  | Like (a, pat) -> node "L" [ a ]; add_str buf pat
  | In_list (a, vs) -> node "i" [ a ]; add_list buf (add_value buf) vs
  | Case (branches, default) ->
      node "?" [];
      add_list buf (fun (c, r) -> node "" [ c; r ]) branches;
      (match default with None -> node "." [] | Some d -> node ";" [ d ])
  | Greatest (a, b) -> node "G" [ a; b ]
  | Least (a, b) -> node "l" [ a; b ]

let add_agg buf { func; agg_name } =
  (match func with
  | Agg.Count_star -> Buffer.add_char buf '*'
  | Count e -> Buffer.add_char buf 'C'; add_expr buf e
  | Sum e -> Buffer.add_char buf 'S'; add_expr buf e
  | Avg e -> Buffer.add_char buf 'A'; add_expr buf e
  | Min e -> Buffer.add_char buf 'm'; add_expr buf e
  | Max e -> Buffer.add_char buf 'M'; add_expr buf e);
  add_str buf agg_name

let add_proj buf { expr; name } =
  add_expr buf expr;
  add_str buf name

let rec add_key buf (q : t) =
  let tag c = Buffer.add_char buf c and sub = add_key buf in
  match q with
  | Rel n -> tag 'R'; add_str buf n
  | ConstRel (s, ts) ->
      tag 'K';
      add_list buf
        (fun (a : Schema.attr) ->
          add_str buf a.name;
          tag (match a.ty with TBool -> 'b' | TInt -> 'i' | TFloat -> 'f' | TStr -> 's'))
        (Schema.attrs s);
      add_list buf (fun t -> add_list buf (add_value buf) (Tuple.to_list t)) ts
  | Select (p, q) -> tag 's'; add_expr buf p; sub q
  | Project (projs, q) -> tag 'P'; add_list buf (add_proj buf) projs; sub q
  | Join (p, l, r) -> tag 'J'; add_expr buf p; sub l; sub r
  | Union (l, r) -> tag 'U'; sub l; sub r
  | Diff (l, r) -> tag 'D'; sub l; sub r
  | Agg (group, aggs, q) ->
      tag 'g';
      add_list buf (add_proj buf) group;
      add_list buf (add_agg buf) aggs;
      sub q
  | Distinct q -> tag 'd'; sub q
  | Coalesce q -> tag 'c'; sub q
  | Split (g, l, r) -> tag 'n'; add_list buf (add_int buf) g; sub l; sub r
  | Split_agg sa ->
      tag 'a';
      add_list buf (add_int buf) sa.sa_group;
      add_list buf (add_agg buf) sa.sa_aggs;
      (match sa.sa_gap with
      | None -> tag '.'
      | Some (lo, hi) -> tag ';'; add_int buf lo; add_int buf hi);
      sub sa.sa_child

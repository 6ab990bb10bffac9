(** The logical relational algebra AST shared by all evaluation levels.

    One AST, four evaluators: plain K-relations ({!Eval}), the pointwise
    abstract model ([tkr_snapshot]), period K-relations
    ([tkr_core]) and — after the rewriting REWR — the physical engine over
    the period encoding ([tkr_engine]).

    [Coalesce], [Split] and [Split_agg] are implementation-level operators
    that only appear in rewritten queries over the period encoding
    (Section 8/9); they follow the convention that the last two columns of
    an encoded relation are [Abegin]/[Aend]. *)

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
  | Distinct of t
  | Coalesce of t  (** K-coalesce the encoding on all data columns (Def. 8.2) *)
  | Split of int list * t * t  (** the split operator N_G (Def. 8.3) *)
  | Split_agg of split_agg

and split_agg = {
  sa_group : int list;
  sa_aggs : agg_spec list;
  sa_gap : (int * int) option;
      (** [Some (tmin, tmax)] covers the whole domain with gap rows
          (aggregation without GROUP BY) *)
  sa_child : t;
}
(** The fused pre-aggregating split+aggregate of Section 9.  Output
    columns: group columns, aggregate results, [Abegin], [Aend]. *)

exception Unsupported of string

val proj : Expr.t -> string -> proj
val cols_proj : Schema.t -> int -> int -> proj list
(** Identity projections for columns [lo..hi-1]. *)

val schema_of : lookup:(string -> Schema.t) -> t -> Schema.t
(** Output schema, given the base-relation schemas. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val add_key : Buffer.t -> t -> unit
(** Append the plan's key: a tagged, length-prefixed encoding of every
    node, expression and constant, written in one walk.  Equal plans
    append equal bytes and distinct plans distinct ones (an [Int 1] and
    a [Float 1.], or two constant relations of as many rows, differ;
    in {!to_string} they do not). *)

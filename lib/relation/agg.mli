(** SQL aggregation functions with mergeable partial states.

    The accumulator {!acc} tracks enough for all supported aggregates at
    once and supports {!combine}, which is what enables the paper's
    pre-aggregation optimization: pre-aggregate per (group, interval),
    split, then combine per elementary segment (Section 9). *)

type func =
  | Count_star
  | Count of Expr.t
  | Sum of Expr.t
  | Avg of Expr.t
  | Min of Expr.t
  | Max of Expr.t

val input_expr : func -> Expr.t option
(** [None] for [count(·)]. *)

type acc

val empty : acc

val step : ?mult:int -> acc -> Value.t -> acc
(** Add one input value with multiplicity [mult] (the annotation of the
    contributing tuple).  NULL inputs count only towards [count(·)]. *)

val combine : acc -> acc -> acc
(** [combine a b] aggregates the union of the inputs of [a] and [b]. *)

val final : func -> acc -> Value.t
(** SQL results over the accumulated inputs: count over empty input is 0,
    every other aggregate is NULL. *)

val rows : acc -> int
(** Number of input rows, NULL inputs included (what [count( * )] reads). *)

val nonnull : acc -> int
(** Number of non-NULL inputs (what [count(e)] and [avg]'s divisor read). *)

val sum : acc -> Value.t
(** Running sum of non-NULL numeric inputs, [Null] when there were none.
    Integer inputs keep an exact [Int] sum, so it is safe to re-derive
    by any association of additions; float sums are order-sensitive. *)

val vmin : acc -> Value.t
(** Running minimum of non-NULL inputs, [Null] when there were none. *)

val vmax : acc -> Value.t
(** Running maximum of non-NULL inputs, [Null] when there were none. *)

val output_ty : Schema.t -> func -> Value.ty
val default_name : func -> string
val map_cols : (int -> int) -> func -> func
val pp : Format.formatter -> func -> unit

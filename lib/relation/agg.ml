(** SQL aggregation functions with mergeable partial states.

    Partial states ({!acc}) support {!combine}, which enables the paper's
    pre-aggregation optimization: the engine pre-aggregates rows per
    (group, interval), splits the pre-aggregates at endpoint boundaries and
    combines them per elementary segment (Section 9). *)

type func =
  | Count_star
  | Count of Expr.t
  | Sum of Expr.t
  | Avg of Expr.t
  | Min of Expr.t
  | Max of Expr.t

let input_expr = function
  | Count_star -> None
  | Count e | Sum e | Avg e | Min e | Max e -> Some e

type acc = {
  rows : int;  (** number of input rows, including NULL inputs *)
  nonnull : int;  (** number of non-NULL inputs *)
  sum : Value.t;  (** running sum of non-NULL inputs, [Null] if none *)
  vmin : Value.t;
  vmax : Value.t;
}

let empty = { rows = 0; nonnull = 0; sum = Value.Null; vmin = Value.Null; vmax = Value.Null }

let val_min a b =
  match (a, b) with
  | Value.Null, x | x, Value.Null -> x
  | a, b -> ( match Value.sql_compare a b with Some c when c > 0 -> b | _ -> a)

let val_max a b =
  match (a, b) with
  | Value.Null, x | x, Value.Null -> x
  | a, b -> ( match Value.sql_compare a b with Some c when c < 0 -> b | _ -> a)

let val_add_null a b =
  match (a, b) with Value.Null, x | x, Value.Null -> x | a, b -> Value.add a b

(* Add one input value with multiplicity [mult] (annotation of the tuple). *)
let step ?(mult = 1) acc (v : Value.t) =
  if mult <= 0 then acc
  else
    match v with
    | Value.Null -> { acc with rows = acc.rows + mult }
    | v ->
        (* the accumulator serves every aggregate at once; summing only
           makes sense for numeric inputs (SUM/AVG over strings is a type
           error at the query level, but MIN/MAX/COUNT are fine) *)
        let sum =
          match v with
          | Value.Int _ | Value.Float _ ->
              let scaled = if mult = 1 then v else Value.mul v (Value.Int mult) in
              val_add_null acc.sum scaled
          | _ -> acc.sum
        in
        {
          rows = acc.rows + mult;
          nonnull = acc.nonnull + mult;
          sum;
          vmin = val_min acc.vmin v;
          vmax = val_max acc.vmax v;
        }

let combine a b =
  {
    rows = a.rows + b.rows;
    nonnull = a.nonnull + b.nonnull;
    sum = val_add_null a.sum b.sum;
    vmin = val_min a.vmin b.vmin;
    vmax = val_max a.vmax b.vmax;
  }

let final (f : func) (acc : acc) : Value.t =
  match f with
  | Count_star -> Value.Int acc.rows
  | Count _ -> Value.Int acc.nonnull
  | Sum _ -> acc.sum
  | Min _ -> acc.vmin
  | Max _ -> acc.vmax
  | Avg _ -> (
      if acc.nonnull = 0 then Value.Null
      else
        match Value.to_float_opt acc.sum with
        | Some s -> Value.Float (s /. float_of_int acc.nonnull)
        | None -> Value.Null)

let rows (acc : acc) = acc.rows
let nonnull (acc : acc) = acc.nonnull
let sum (acc : acc) = acc.sum
let vmin (acc : acc) = acc.vmin
let vmax (acc : acc) = acc.vmax

let output_ty (schema : Schema.t) = function
  | Count_star | Count _ -> Value.TInt
  | Avg _ -> Value.TFloat
  | Sum e | Min e | Max e -> Expr.infer_ty schema e

let default_name = function
  | Count_star -> "count"
  | Count _ -> "count"
  | Sum _ -> "sum"
  | Avg _ -> "avg"
  | Min _ -> "min"
  | Max _ -> "max"

let pp ppf f =
  match f with
  | Count_star -> Format.pp_print_string ppf "count(*)"
  | Count e -> Format.fprintf ppf "count(%a)" Expr.pp e
  | Sum e -> Format.fprintf ppf "sum(%a)" Expr.pp e
  | Avg e -> Format.fprintf ppf "avg(%a)" Expr.pp e
  | Min e -> Format.fprintf ppf "min(%a)" Expr.pp e
  | Max e -> Format.fprintf ppf "max(%a)" Expr.pp e

let map_cols f = function
  | Count_star -> Count_star
  | Count e -> Count (Expr.map_cols f e)
  | Sum e -> Sum (Expr.map_cols f e)
  | Avg e -> Avg (Expr.map_cols f e)
  | Min e -> Min (Expr.map_cols f e)
  | Max e -> Max (Expr.map_cols f e)

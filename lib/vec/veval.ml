(** Vectorized scalar-expression evaluation over {!Batch.t}.

    [eval b e] produces a dense column aligned with [b]'s {e logical} rows
    (the selection is applied at the [Col] leaves).  The common arithmetic
    and comparison forms run column-at-a-time over the unboxed
    representations; everything else degrades gracefully — first to a
    generic boxed column loop ({!Value} semantics applied cell-wise), and
    for the row-oriented constructors ([LIKE], [IN], [CASE],
    [GREATEST]/[LEAST]) to evaluating {!Expr.eval} on materialized rows —
    so every path reproduces the row oracle's three-valued logic,
    int/float coercions, NULL-on-division-by-zero and error behaviour
    exactly. *)

open Tkr_relation

let cmp_result (op : Expr.cmp) (c : int) : bool =
  match op with
  | Expr.Eq -> c = 0
  | Expr.Ne -> c <> 0
  | Expr.Lt -> c < 0
  | Expr.Le -> c <= 0
  | Expr.Gt -> c > 0
  | Expr.Ge -> c >= 0

(* tri-state truth of a cell under SQL logic: 1 TRUE, 0 FALSE, -1 UNKNOWN
   (NULL or non-boolean, which the connectives treat alike) *)
let truth (c : Batch.col) (i : int) : int =
  if Batch.is_null_at c i then -1
  else
    match c.data with
    | Batch.Bools a -> if a.(i) then 1 else 0
    | Batch.Boxed a -> (
        match a.(i) with
        | Value.Bool true -> 1
        | Value.Bool false -> 0
        | _ -> -1)
    | _ -> -1

let null_at (c : Batch.col) (i : int) : bool =
  match c.nulls with Some m -> m.(i) | None -> false

(* the union of two validity masks; shares an operand's mask when the
   other is absent (masks are immutable once built) *)
let union_masks n (a : bool array option) (b : bool array option) :
    bool array option =
  match (a, b) with
  | None, None -> None
  | Some m, None | None, Some m -> Some m
  | Some x, Some y -> Some (Array.init n (fun i -> x.(i) || y.(i)))

let rec eval (b : Batch.t) (e : Expr.t) : Batch.col =
  let n = Batch.length b in
  match e with
  | Expr.Col i -> (
      match b.sel with
      | None -> b.cols.(i)
      | Some s -> Batch.gather_col b.cols.(i) s)
  | Expr.Const v -> Batch.const_col v n
  | Expr.Binop (op, x, y) -> binop n op (eval b x) (eval b y)
  | Expr.Neg x -> neg n (eval b x)
  | Expr.Cmp (op, x, y) -> cmp n op (eval b x) (eval b y)
  | Expr.And (x, y) ->
      (* both sides evaluate, like the row oracle's non-short-circuit AND *)
      let ca = eval b x and cb = eval b y in
      connective n ca cb (fun ta tb ->
          if ta = 0 || tb = 0 then 0 else if ta = 1 && tb = 1 then 1 else -1)
  | Expr.Or (x, y) ->
      let ca = eval b x and cb = eval b y in
      connective n ca cb (fun ta tb ->
          if ta = 1 || tb = 1 then 1 else if ta = 0 && tb = 0 then 0 else -1)
  | Expr.Not x ->
      let c = eval b x in
      let out = Array.make n false and mask = Array.make n false in
      for i = 0 to n - 1 do
        match truth c i with
        | 1 -> ()
        | 0 -> out.(i) <- true
        | _ -> mask.(i) <- true
      done;
      { Batch.data = Batch.Bools out; nulls = Some mask }
  | Expr.Is_null x ->
      let c = eval b x in
      {
        Batch.data = Batch.Bools (Array.init n (fun i -> Batch.is_null_at c i));
        nulls = None;
      }
  | Expr.Greatest (x, y) | Expr.Least (x, y) -> (
      (* the temporal join recombines periods with greatest/least over the
         int endpoint columns on every output row, so this pair gets a
         typed path; [Expr.eval] picks the left operand on ties ([c >= 0]
         resp. [c <= 0]), which over ints is plain max/min *)
      let ca = eval b x and cb = eval b y in
      match (ca.Batch.data, cb.Batch.data) with
      | Batch.Ints a, Batch.Ints c ->
          let greatest =
            match e with Expr.Greatest _ -> true | _ -> false
          in
          let pick =
            if greatest then fun i -> if a.(i) >= c.(i) then a.(i) else c.(i)
            else fun i -> if a.(i) <= c.(i) then a.(i) else c.(i)
          in
          {
            Batch.data = Batch.Ints (Array.init n pick);
            nulls = union_masks n ca.nulls cb.nulls;
          }
      | _ -> rowwise b e)
  | Expr.Like _ | Expr.In_list _ | Expr.Case _ -> rowwise b e

(* row-at-a-time fallback for the rare constructors: materialize each
   logical row and defer to the oracle's own evaluator.  Only the columns
   [e] reads are boxed, the rest stay NULL: a join's residual view holds
   empty placeholders for the columns its predicate does not need. *)
and rowwise (b : Batch.t) (e : Expr.t) : Batch.col =
  let n = Batch.length b in
  let width = Array.length b.Batch.cols in
  let needed = List.sort_uniq Int.compare (Expr.cols e) in
  {
    Batch.data =
      Batch.Boxed
        (Array.init n (fun li ->
             let i = Batch.phys b li in
             let row = Array.make width Value.Null in
             List.iter
               (fun j -> row.(j) <- Batch.value b.Batch.cols.(j) i)
               needed;
             Expr.eval (Tuple.of_array row) e));
    nulls = None;
  }

and connective n (ca : Batch.col) (cb : Batch.col) (table : int -> int -> int)
    : Batch.col =
  let out = Array.make n false and mask = Array.make n false in
  for i = 0 to n - 1 do
    match table (truth ca i) (truth cb i) with
    | 1 -> out.(i) <- true
    | 0 -> ()
    | _ -> mask.(i) <- true
  done;
  { Batch.data = Batch.Bools out; nulls = Some mask }

and binop n (op : Expr.binop) (ca : Batch.col) (cb : Batch.col) : Batch.col =
  match (ca.Batch.data, cb.Batch.data) with
  | Batch.Ints a, Batch.Ints b -> (
      let nulls = union_masks n ca.nulls cb.nulls in
      let map2 f = Array.init n (fun i -> f a.(i) b.(i)) in
      match op with
      | Expr.Add -> { Batch.data = Batch.Ints (map2 ( + )); nulls }
      | Expr.Sub -> { Batch.data = Batch.Ints (map2 ( - )); nulls }
      | Expr.Mul -> { Batch.data = Batch.Ints (map2 ( * )); nulls }
      | Expr.Div | Expr.Mod ->
          (* division by zero yields NULL, like [Value.div] *)
          let f = if op = Expr.Div then ( / ) else ( mod ) in
          let out = Array.make n 0 in
          let mask = Array.make n false in
          for i = 0 to n - 1 do
            if null_at ca i || null_at cb i then mask.(i) <- true
            else if b.(i) = 0 then mask.(i) <- true
            else out.(i) <- f a.(i) b.(i)
          done;
          { Batch.data = Batch.Ints out; nulls = Some mask })
  | (Batch.Ints _ | Batch.Floats _), (Batch.Ints _ | Batch.Floats _) ->
      let getf (c : Batch.col) : int -> float =
        match c.Batch.data with
        | Batch.Floats a -> fun i -> a.(i)
        | Batch.Ints a -> fun i -> float_of_int a.(i)
        | _ -> assert false
      in
      let fa = getf ca and fb = getf cb in
      let ff =
        match op with
        | Expr.Add -> ( +. )
        | Expr.Sub -> ( -. )
        | Expr.Mul -> ( *. )
        | Expr.Div -> ( /. )
        | Expr.Mod -> Float.rem
      in
      let divides = match op with Expr.Div | Expr.Mod -> true | _ -> false in
      let out = Array.make n 0.0 in
      let mask = Array.make n false in
      let masked = ref false in
      for i = 0 to n - 1 do
        if null_at ca i || null_at cb i then begin
          mask.(i) <- true;
          masked := true
        end
        else if divides && fb i = 0.0 then begin
          mask.(i) <- true;
          masked := true
        end
        else out.(i) <- ff (fa i) (fb i)
      done;
      {
        Batch.data = Batch.Floats out;
        nulls = (if !masked then Some mask else None);
      }
  | _ ->
      let vop =
        match op with
        | Expr.Add -> Value.add
        | Expr.Sub -> Value.sub
        | Expr.Mul -> Value.mul
        | Expr.Div -> Value.div
        | Expr.Mod -> Value.modulo
      in
      {
        Batch.data =
          Batch.Boxed
            (Array.init n (fun i -> vop (Batch.value ca i) (Batch.value cb i)));
        nulls = None;
      }

and neg n (c : Batch.col) : Batch.col =
  match c.Batch.data with
  | Batch.Ints a ->
      { Batch.data = Batch.Ints (Array.init n (fun i -> -a.(i))); nulls = c.nulls }
  | Batch.Floats a ->
      {
        Batch.data = Batch.Floats (Array.init n (fun i -> -.a.(i)));
        nulls = c.nulls;
      }
  | _ ->
      {
        Batch.data =
          Batch.Boxed (Array.init n (fun i -> Value.neg (Batch.value c i)));
        nulls = None;
      }

and cmp n (op : Expr.cmp) (ca : Batch.col) (cb : Batch.col) : Batch.col =
  let typed (compare_at : int -> int) : Batch.col =
    let out = Array.make n false and mask = Array.make n false in
    let masked = ref false in
    for i = 0 to n - 1 do
      if null_at ca i || null_at cb i then begin
        mask.(i) <- true;
        masked := true
      end
      else out.(i) <- cmp_result op (compare_at i)
    done;
    { Batch.data = Batch.Bools out; nulls = (if !masked then Some mask else None) }
  in
  match (ca.Batch.data, cb.Batch.data) with
  | Batch.Ints a, Batch.Ints b -> typed (fun i -> Int.compare a.(i) b.(i))
  | (Batch.Ints _ | Batch.Floats _), (Batch.Ints _ | Batch.Floats _) ->
      let getf (c : Batch.col) : int -> float =
        match c.Batch.data with
        | Batch.Floats a -> fun i -> a.(i)
        | Batch.Ints a -> fun i -> float_of_int a.(i)
        | _ -> assert false
      in
      let fa = getf ca and fb = getf cb in
      typed (fun i -> Float.compare (fa i) (fb i))
  | Batch.Strs a, Batch.Strs b -> typed (fun i -> String.compare a.(i) b.(i))
  | Batch.Bools a, Batch.Bools b -> typed (fun i -> Bool.compare a.(i) b.(i))
  | _ ->
      (* generic: the oracle's [sql_compare], including its exception on
         incompatible non-null types *)
      let out = Array.make n false and mask = Array.make n false in
      for i = 0 to n - 1 do
        match Value.sql_compare (Batch.value ca i) (Batch.value cb i) with
        | None -> mask.(i) <- true
        | Some c -> out.(i) <- cmp_result op c
      done;
      { Batch.data = Batch.Bools out; nulls = Some mask }

(** [filter b pred]: the physical rows of [b]'s selection on which [pred]
    holds (evaluates to TRUE), in logical order.  The predicate is split
    into conjuncts and applied with predicate fusion: each conjunct only
    evaluates on the survivors of the previous ones. *)
let filter (b : Batch.t) (pred : Expr.t) : int array =
  let conjs = Expr.conjuncts pred in
  (* [None] = every physical row in order; keeping the dense case symbolic
     lets the first conjunct evaluate straight off the columns instead of
     gathering them through an identity selection *)
  let cur = ref b.sel in
  List.iter
    (fun conj ->
      let n = match !cur with Some s -> Array.length s | None -> b.nrows in
      if n > 0 then begin
        let view =
          match !cur with None -> b | Some s -> Batch.with_sel b s
        in
        let c = eval view conj in
        let keep = Array.make n 0 in
        let k = ref 0 in
        (match !cur with
        | None ->
            for li = 0 to n - 1 do
              if truth c li = 1 then begin
                keep.(!k) <- li;
                incr k
              end
            done
        | Some s ->
            for li = 0 to n - 1 do
              if truth c li = 1 then begin
                keep.(!k) <- s.(li);
                incr k
              end
            done);
        cur := Some (Array.sub keep 0 !k)
      end)
    conjs;
  match !cur with Some s -> s | None -> Array.init b.nrows Fun.id

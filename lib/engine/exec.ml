(** The plan interpreter: evaluates the (possibly rewritten) algebra over
    physical multiset tables.

    Join strategy: conjunctive predicates are scanned for equi-join keys
    ([Expr.equi_keys]); when any are found a hash join is used with the
    remaining conjuncts (e.g. the interval-overlap condition added by the
    rewriter) as a residual filter, otherwise a nested-loop join. *)

open Tkr_relation

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

let hash_join keys residual (l : Table.t) (r : Table.t) : Table.t =
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
                let row = Tuple.append lrow rrow in
                let ok =
                  match residual with
                  | None -> true
                  | Some p -> Expr.holds row p
                in
                if ok then buf := row :: !buf)
              (List.rev !matches)
        | None -> ())
    (Table.rows l);
  Table.make out_schema (List.rev !buf)

let join pred (l : Table.t) (r : Table.t) : Table.t =
  match Expr.equi_keys ~left_arity:(Schema.arity (Table.schema l)) pred with
  | [], _ -> nested_loop_join pred l r
  | keys, residual -> hash_join keys residual l r

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

let rec eval (db : Database.t) (q : Algebra.t) : Table.t =
  match q with
  | Rel n -> Database.find db n
  | ConstRel (schema, tuples) -> Table.make schema tuples
  | Select (p, q) -> select p (eval db q)
  | Project (projs, q) -> project projs (eval db q)
  | Join (p, l, r) ->
      let lt = eval db l in
      join p lt (eval db r)
  | Union (l, r) ->
      let lt = eval db l in
      union lt (eval db r)
  | Diff (l, r) ->
      let lt = eval db l in
      except_all lt (eval db r)
  | Agg (group, aggs, q) -> aggregate group aggs (eval db q)
  | Distinct q -> distinct (eval db q)
  | Coalesce q -> Ops.coalesce (eval db q)
  | Split (g, l, r) ->
      (* avoid evaluating a shared subquery twice *)
      if l == r then
        let t = eval db l in
        Ops.split g t t
      else
        let lt = eval db l in
        Ops.split g lt (eval db r)
  | Split_agg sa ->
      Ops.split_agg ~group:sa.sa_group ~aggs:sa.sa_aggs ~gap:sa.sa_gap
        (eval db sa.sa_child)

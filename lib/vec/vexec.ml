(** The vectorized plan executor.

    Evaluates the same physical {!Algebra.t} plans as the interpreted row
    engine ({!Tkr_engine.Exec}), but batch-at-a-time over columnar
    {!Batch.t}s: filters narrow selection vectors, joins probe a columnar
    keyset and gather, the temporal sweeps (coalesce / split / split_agg)
    run over dense [Abegin]/[Aend] int arrays.

    {b Correctness bar: byte-identity with the row oracle.}  For every
    plan and database, [eval] must produce exactly the rows [Exec.eval]
    produces, in exactly the same order — the row interpreter is the
    differential-testing oracle, so every operator here reproduces its
    emission order: probe order and per-key right-row order for hash
    joins, first-appearance order for groups and DISTINCT, counting
    semantics for EXCEPT ALL, first-appearance + stable-by-begin entry
    order for the split_agg combine. *)

open Tkr_relation
module Batch = Tkr_engine.Batch
module Table = Tkr_engine.Table
module Database = Tkr_engine.Database
module Exec = Tkr_engine.Exec
module Trace = Tkr_obs.Trace
module Isort = Tkr_idx.Isort
module Scratch = Tkr_idx.Scratch

type ctx = {
  obs : Trace.t;
  db : Database.t;
  use_index : bool;
      (* answer index-answerable period-table selections through the
         temporal interval index (byte-identical either way) *)
}

(* [Batch.phys], here so that per-row loops inline it *)
let[@inline] phys (sel : int array option) (i : int) : int =
  match sel with Some s -> s.(i) | None -> i

(* which keyset path ({!Key.direct}) an operator's keys took *)
let key_path sp key =
  Trace.set_str sp "keys" (if Key.direct key then "direct" else "hashed")

let rows_in sp batches =
  match sp with
  | None -> ()
  | Some _ ->
      Trace.set_int sp "rows_in"
        (List.fold_left (fun acc b -> acc + Batch.length b) 0 batches)

(* ---- select ---- *)

let select sp pred (b : Batch.t) : Batch.t =
  Trace.set_int sp "conjuncts" (List.length (Expr.conjuncts pred));
  Batch.with_sel b (Veval.filter b pred)

(* Index-assisted selection over a stored period table: when the
   conjuncts bound the period columns on both sides ({!Tkr_idx.Probe}),
   probe the interval index for the candidate physical rows
   ({!Table.probe}: each segment's index, one for a compacted value,
   with an unindexed tail scanned).  The candidates come in ascending
   physical order (= the identity selection's order).  When the bounds are exact (every
   conjunct is a bound, as in an [AS OF] timeslice), the candidates are
   the answer, and the probe gathers only the columns the consumer
   [need]s; otherwise the bounds are necessary conditions and
   [Veval.filter] re-applies the full predicate over the candidates, so
   the surviving rows are exactly the ones the full filter would keep,
   in the same order.  [None] when the predicate is not index-answerable
   (the caller scans). *)
let index_select ?need (db : Database.t) sp pred (n : string) : Batch.t option =
  let t = Database.find db n in
  let arity = Schema.arity (Table.schema t) in
  match Tkr_idx.Probe.bounds ~arity pred with
  | None -> None
  | Some { Tkr_idx.Probe.b_hi; e_lo; exact } -> (
      let need =
        if exact then need else Option.map (List.append (Expr.cols pred)) need
      in
      match Table.probe ?need t ~b_hi ~e_lo with
      | None -> None
      | Some { Table.view; candidates; segments; scanned } ->
          Tkr_idx.Stats.record_probes ~probes:1 ~candidates;
          Trace.set_int sp "rows_in" (Table.cardinality t);
          Trace.set_str sp "access" "index";
          Trace.set_int sp "candidates" candidates;
          if segments > 1 then begin
            Trace.set_int sp "segments" segments;
            Trace.set_int sp "scanned" scanned
          end;
          Trace.set_int sp "conjuncts" (List.length (Expr.conjuncts pred));
          Some
            (if exact then view
             else Batch.with_sel view (Veval.filter view pred)))

(* ---- project ---- *)

(* A projection [project] evaluates: one its consumer [need]s, or one
   that computes, whose errors must show as the row engine's do.  Every
   other one is a plain column reference nobody reads. *)
let evaluated need j (p : Algebra.proj) =
  Batch.needed need j || match p.expr with Expr.Col _ -> false | _ -> true

(* the input columns [project ?need projs] reads *)
let project_need need (projs : Algebra.proj list) : int list =
  List.concat
    (List.mapi
       (fun j (p : Algebra.proj) ->
         if evaluated need j p then Expr.cols p.expr else [])
       projs)

(* [need] (default: all) lists the output columns the consumer reads;
   the input holds at least {!project_need}'s columns *)
let project ?need (projs : Algebra.proj list) (b : Batch.t) : Batch.t =
  let schema = Batch.schema b in
  let out_schema =
    Schema.make
      (List.map
         (fun (p : Algebra.proj) ->
           Schema.attr p.name (Expr.infer_ty schema p.expr))
         projs)
  in
  let col_refs =
    List.filter_map
      (fun (p : Algebra.proj) ->
        match p.expr with Expr.Col j -> Some b.Batch.cols.(j) | _ -> None)
      projs
  in
  if List.compare_lengths col_refs projs = 0 then
    (* only column references: share the input's columns and keep its
       selection, gathering nothing *)
    { b with Batch.schema = out_schema; cols = Array.of_list col_refs }
  else
    let cols =
      Array.of_list
        (List.mapi
           (fun j (p : Algebra.proj) ->
             if evaluated need j p then Veval.eval b p.expr
             else Batch.placeholder)
           projs)
    in
    Batch.of_cols out_schema (Batch.length b) cols

(* ---- union / except ---- *)

let union (a : Batch.t) (b : Batch.t) : Batch.t =
  if not (Schema.union_compatible (Batch.schema a) (Batch.schema b)) then
    invalid_arg "engine: UNION ALL over incompatible schemas";
  Batch.append a b

(* EXCEPT ALL via counting, like the oracle: every right row cancels one
   matching left row; surviving left rows keep their order. *)
let except_all sp (a : Batch.t) (b : Batch.t) : Batch.t =
  if not (Schema.union_compatible (Batch.schema a) (Batch.schema b)) then
    invalid_arg "engine: EXCEPT ALL over incompatible schemas";
  let nb = Batch.length b in
  let key =
    Key.create ~hint:nb ~sels:[| b.Batch.sel; a.Batch.sel |]
      [| b.Batch.cols; a.Batch.cols |]
  in
  key_path sp key;
  (* group ids are dense and at most [nb] *)
  let counts = Scratch.get (max nb 1) in
  Array.fill counts 0 (max nb 1) 0;
  for ri = 0 to nb - 1 do
    let g = Key.intern key ~src:0 ~row:(phys b.Batch.sel ri) in
    counts.(g) <- counts.(g) + 1
  done;
  let na = Batch.length a in
  let keep = Ibuf.create ~cap:na () in
  for li = 0 to na - 1 do
    let pi = phys a.Batch.sel li in
    let g = Key.lookup key ~src:1 ~row:pi in
    if g >= 0 && counts.(g) > 0 then counts.(g) <- counts.(g) - 1
    else Ibuf.push keep pi
  done;
  Key.release key;
  Scratch.release counts;
  let sel = Ibuf.take keep in
  Batch.with_sel a sel

(* ---- join ---- *)

(* One conjunct [x op y] of a residual over two non-null unboxed int
   columns, each read at the pair's left ([x_left]) or right physical
   row. *)
type fused_cmp = {
  op : Expr.cmp;
  x : int array;
  x_left : bool;
  y : int array;
  y_left : bool;
}

(* The residual compiled to {!fused_cmp}s when every conjunct compares
   two non-null unboxed int columns — the shape the period encoding
   produces for interval overlap ([b1 < e2 AND b2 < e1]).  Such
   conjuncts are two-valued, so testing pairs inline is exactly
   [Veval.filter] on the materialized candidates, without ever gathering
   the rejected ones.  [None] for any other residual. *)
let fused_residual (la : int) (lb : Batch.t) (rb : Batch.t) (p : Expr.t) :
    fused_cmp array option =
  let operand j =
    let c, left =
      if j < la then (lb.Batch.cols.(j), true) else (rb.Batch.cols.(j - la), false)
    in
    match (c.Batch.data, c.Batch.nulls) with
    | Batch.Ints a, None -> Some (a, left)
    | _ -> None
  in
  let conj = function
    | Expr.Cmp (op, Expr.Col x, Expr.Col y) -> (
        match (operand x, operand y) with
        | Some (x, x_left), Some (y, y_left) -> Some { op; x; x_left; y; y_left }
        | _ -> None)
    | _ -> None
  in
  let tests = List.map conj (Expr.conjuncts p) in
  if List.for_all Option.is_some tests then
    Some (Array.of_list (List.map Option.get tests))
  else None

(* how a join tests its candidate pairs *)
type residual_test =
  | Fused of fused_cmp array
      (** one typed loop per conjunct over a block of candidates (no
          residual: no conjunct) *)
  | Blocked of Expr.t * int list
      (** [Veval.filter] over blocks of candidates, gathering only the
          listed columns *)

(* At most this many candidates wait in a block: a join's working
   memory is bounded by the block, not by its candidate count.  The block
   starts at the join's size hint and doubles up to the bound, which is
   smaller for a fused residual: its test reads the two int arrays at
   the pairs directly, so a block that stays in cache pays more than a
   long one saves. *)
let block_pairs = function Fused _ -> 4_096 | _ -> 65_536

(* The candidate pairs of a join, in emission order, and their
   survivors.  Survivors are recorded only when a consumer reads some
   output column; otherwise only their count is kept. *)
type pairs = {
  out_schema : Schema.t;
  lb : Batch.t;
  rb : Batch.t;
  test : residual_test;
  mutable bl : int array;  (** the waiting block *)
  mutable br : int array;
  mutable nb : int;
  limit : int;  (** the block's bound *)
  wanted : bool array;  (** output columns to gather *)
  record : bool;
  lout : Ibuf.t;
  rout : Ibuf.t;
  mutable candidates : int;
  mutable passed : int;
}

(* [cap]: the expected number of survivors; [block]: of candidates *)
let pairs_create ?need ~cap ~block out_schema (lb : Batch.t) (rb : Batch.t)
    (residual : Expr.t option) : pairs =
  let la = Array.length lb.Batch.cols and ra = Array.length rb.Batch.cols in
  let test =
    match residual with
    | None -> Fused [||]
    | Some p -> (
        match fused_residual la lb rb p with
        | Some t -> Fused t
        | None -> Blocked (p, List.sort_uniq Int.compare (Expr.cols p)))
  in
  let wanted =
    match need with
    | None -> Array.make (la + ra) true
    | Some js ->
        let w = Array.make (la + ra) false in
        List.iter (fun j -> w.(j) <- true) js;
        w
  in
  let record = Array.exists Fun.id wanted in
  let limit = block_pairs test in
  let block () = Scratch.get (max 1 (min block limit)) in
  let bl = block () in
  let br = block () in
  {
    out_schema;
    lb;
    rb;
    test;
    bl;
    br;
    nb = 0;
    limit;
    wanted;
    record;
    lout = Ibuf.create ~cap:(if record then cap else 1) ();
    rout = Ibuf.create ~cap:(if record then cap else 1) ();
    candidates = 0;
    passed = 0;
  }

(* the waiting block's first [n] pairs survive *)
let keep (s : pairs) (n : int) : unit =
  s.passed <- s.passed + n;
  if s.record then begin
    Ibuf.append s.lout s.bl n;
    Ibuf.append s.rout s.br n
  end

(* Keep the pairs [k < n] of [bl]/[br] with [x.(xi.(k)) op y.(yi.(k))],
   compacting both in place (in order), where [xi]/[yi] are [bl] or [br]
   as the operands read the left or the right row; the number kept.  One
   loop per operator ([>] and [>=] as [<] and [<=] with the operands
   swapped): the comparison is not dispatched per pair. *)
let filter_pairs (t : fused_cmp) (bl : int array) (br : int array) (n : int) :
    int =
  let swap = match t.op with Expr.Gt | Expr.Ge -> true | _ -> false in
  let x = if swap then t.y else t.x and y = if swap then t.x else t.y in
  let x_left = if swap then t.y_left else t.x_left
  and y_left = if swap then t.x_left else t.y_left in
  let xi = if x_left then bl else br and yi = if y_left then bl else br in
  let w = ref 0 in
  (match t.op with
  | Expr.Lt | Expr.Gt ->
      for k = 0 to n - 1 do
        if x.(xi.(k)) < y.(yi.(k)) then begin
          bl.(!w) <- bl.(k);
          br.(!w) <- br.(k);
          incr w
        end
      done
  | Expr.Le | Expr.Ge ->
      for k = 0 to n - 1 do
        if x.(xi.(k)) <= y.(yi.(k)) then begin
          bl.(!w) <- bl.(k);
          br.(!w) <- br.(k);
          incr w
        end
      done
  | Expr.Eq ->
      for k = 0 to n - 1 do
        if x.(xi.(k)) = y.(yi.(k)) then begin
          bl.(!w) <- bl.(k);
          br.(!w) <- br.(k);
          incr w
        end
      done
  | _ ->
      for k = 0 to n - 1 do
        if x.(xi.(k)) <> y.(yi.(k)) then begin
          bl.(!w) <- bl.(k);
          br.(!w) <- br.(k);
          incr w
        end
      done);
  !w

(** The pairs [k < n] of [bl]/[br] (physical left and right rows) that
    pass every fused conjunct, compacted in order to the front of both
    arrays, one conjunct at a time; their number. *)
let filter_fused (tests : fused_cmp array) (bl : int array) (br : int array)
    (n : int) : int =
  let n = ref n in
  for j = 0 to Array.length tests - 1 do
    n := filter_pairs tests.(j) bl br !n
  done;
  !n

(* test the waiting block and pass its survivors on in order: fused
   conjuncts one at a time over the block, any other residual by
   gathering its columns for the block and filtering *)
let flush (s : pairs) : unit =
  if s.nb > 0 then begin
    match s.test with
    | Fused tests ->
        keep s (filter_fused tests s.bl s.br s.nb);
        s.nb <- 0
    | Blocked (p, needed) ->
        let la = Array.length s.lb.Batch.cols in
        let cols =
          Array.make (la + Array.length s.rb.Batch.cols) Batch.placeholder
        in
        List.iter
          (fun j ->
            cols.(j) <-
              (if j < la then Batch.gather_col ~len:s.nb s.lb.Batch.cols.(j) s.bl
               else Batch.gather_col ~len:s.nb s.rb.Batch.cols.(j - la) s.br))
          needed;
        let sel = Veval.filter (Batch.of_cols s.out_schema s.nb cols) p in
        (* [sel] ascends, so the survivors compact in place *)
        for k = 0 to Array.length sel - 1 do
          s.bl.(k) <- s.bl.(sel.(k));
          s.br.(k) <- s.br.(sel.(k))
        done;
        keep s (Array.length sel);
        s.nb <- 0
  end

(* the candidate pairs (lp, rows.(k)) for [k] in [\[first, stop)], by
   physical rows, appended to the waiting block a run at a time *)
let offer_run (s : pairs) (lp : int) (rows : int array) (first : int)
    (stop : int) : unit =
  s.candidates <- s.candidates + (stop - first);
  let k = ref first in
  while !k < stop do
    if s.nb = Array.length s.bl then begin
      let grow a =
        let a' = Scratch.get (min s.limit (2 * s.nb)) in
        Array.blit a 0 a' 0 s.nb;
        Scratch.release a;
        a'
      in
      s.bl <- grow s.bl;
      s.br <- grow s.br
    end;
    (* a loop, not [Array.fill]/[Array.blit]: runs are short (a few
       right rows per key), and each of those is a C call *)
    let m = min (stop - !k) (Array.length s.bl - s.nb) in
    let bl = s.bl and br = s.br and nb = s.nb and k0 = !k in
    for j = 0 to m - 1 do
      bl.(nb + j) <- lp;
      br.(nb + j) <- rows.(k0 + j)
    done;
    s.nb <- nb + m;
    k := k0 + m;
    if s.nb >= s.limit then flush s
  done

(* the joined output: the wanted columns gathered at the survivors, the
   rest {!Batch.placeholder}s *)
let pairs_finish (s : pairs) : Batch.t =
  flush s;
  let la = Array.length s.lb.Batch.cols in
  let lp = Ibuf.data s.lout and rp = Ibuf.data s.rout and n = s.passed in
  let cols =
    Array.mapi
      (fun j wanted ->
        if not wanted then Batch.placeholder
        else if j < la then Batch.gather_col ~len:n s.lb.Batch.cols.(j) lp
        else Batch.gather_col ~len:n s.rb.Batch.cols.(j - la) rp)
      s.wanted
  in
  Ibuf.release s.lout;
  Ibuf.release s.rout;
  Scratch.release s.bl;
  Scratch.release s.br;
  Batch.of_cols s.out_schema n cols

(* Counting sort of [n] items by dense group id ([gids.(i)] in
   [\[0, ngid)], or negative to leave item [i] out): group [g]'s items
   are [bucket.(offsets.(g)) .. bucket.(offsets.(g+1) - 1)], as
   [rows.(i)] (as [i] itself without [rows]), in input order.  The
   arrays come from [get]. *)
let buckets ~get ~ngid ~n (gids : int array) (rows : int array option) :
    int array * int array =
  let counts = get (max ngid 1) in
  Array.fill counts 0 (max ngid 1) 0;
  for i = 0 to n - 1 do
    let g = gids.(i) in
    if g >= 0 then counts.(g) <- counts.(g) + 1
  done;
  let offsets = get (ngid + 1) in
  offsets.(0) <- 0;
  for g = 1 to ngid do
    offsets.(g) <- offsets.(g - 1) + counts.(g - 1)
  done;
  let bucket = get (max offsets.(ngid) 1) in
  let fill = get (max ngid 1) in
  Array.blit offsets 0 fill 0 ngid;
  for i = 0 to n - 1 do
    let g = gids.(i) in
    if g >= 0 then begin
      bucket.(fill.(g)) <- (match rows with Some r -> r.(i) | None -> i);
      fill.(g) <- fill.(g) + 1
    end
  done;
  (offsets, bucket)

let hash_join ?need sp keys residual (lb : Batch.t) (rb : Batch.t) : Batch.t =
  let out_schema = Schema.concat (Batch.schema lb) (Batch.schema rb) in
  let lkeys = List.map fst keys and rkeys = List.map snd keys in
  let lkey_cols =
    Array.of_list (List.map (fun i -> lb.Batch.cols.(i)) lkeys)
  in
  let rkey_cols =
    Array.of_list (List.map (fun j -> rb.Batch.cols.(j)) rkeys)
  in
  let nr = Batch.length rb and nl = Batch.length lb in
  (* left key columns that provably hold no NULLs need no per-row check *)
  let nullable_lkeys =
    Array.of_list
      (List.filter_map
         (fun i ->
           let c = lb.Batch.cols.(i) in
           if
             c.Batch.nulls <> None
             || match c.Batch.data with Batch.Boxed _ -> true | _ -> false
           then Some c
           else None)
         lkeys)
  in
  let may_null = Array.length nullable_lkeys > 0 in
  let lkey_has_null pi =
    let j = ref 0 in
    while
      !j < Array.length nullable_lkeys
      && not (Batch.is_null_at nullable_lkeys.(!j) pi)
    do
      incr j
    done;
    !j < Array.length nullable_lkeys
  in
  let pairs =
    pairs_create ?need ~cap:(max nl 1) ~block:(max nl nr) out_schema lb rb
      residual
  in
  (* Build the keyset on the smaller input; either way the pairs come out
     left-major (left order, and right order within a left row), exactly
     like the row oracle's nested emission.  The build arrays are
     operator-private scratch buffers. *)
  Scratch.scoped @@ fun get ->
  if nl < nr then begin
    (* Build on the left.  Left rows sharing a group id match the same
       right rows, so matched right rows bucketed per gid (in right
       order) replay for each left row of that gid.  NULL left keys stay
       out of the table: the keyset equates NULL with NULL, but SQL join
       keys never do. *)
    let key =
      Key.create ~hint:nl ~sels:[| lb.Batch.sel; rb.Batch.sel |]
        [| lkey_cols; rkey_cols |]
    in
    key_path sp key;
    let lgids = get (max nl 1) in
    for li = 0 to nl - 1 do
      let pi = phys lb.Batch.sel li in
      lgids.(li) <-
        (if may_null && lkey_has_null pi then -1
         else Key.intern key ~src:0 ~row:pi)
    done;
    let rg = get (max nr 1) in
    for ri = 0 to nr - 1 do
      (* a NULL right key can only hash-match a NULL entry, and none were
         interned, so no explicit right-side NULL check is needed *)
      rg.(ri) <- Key.lookup key ~src:1 ~row:(phys rb.Batch.sel ri)
    done;
    let offsets, bucket =
      buckets ~get ~ngid:(Key.count key) ~n:nr rg rb.Batch.sel
    in
    Key.release key;
    for li = 0 to nl - 1 do
      let g = lgids.(li) in
      if g >= 0 then begin
        let pi = phys lb.Batch.sel li in
        offer_run pairs pi bucket offsets.(g) offsets.(g + 1)
      end
    done
  end
  else begin
    (* Build on the right: bucket every right row per gid, probe in left
       order.  NULL right keys may sit in the table, but a non-NULL left
       probe never equals them. *)
    let key =
      Key.create ~hint:nr ~sels:[| rb.Batch.sel; lb.Batch.sel |]
        [| rkey_cols; lkey_cols |]
    in
    key_path sp key;
    let rgids = get (max nr 1) in
    for ri = 0 to nr - 1 do
      rgids.(ri) <- Key.intern key ~src:0 ~row:(phys rb.Batch.sel ri)
    done;
    let ngid = Key.count key in
    let offsets, bucket = buckets ~get ~ngid ~n:nr rgids rb.Batch.sel in
    for li = 0 to nl - 1 do
      let pi = phys lb.Batch.sel li in
      if not (may_null && lkey_has_null pi) then begin
        let g = Key.lookup key ~src:1 ~row:pi in
        if g >= 0 && g < ngid then
          offer_run pairs pi bucket offsets.(g) offsets.(g + 1)
      end
    done;
    Key.release key
  end;
  let result = pairs_finish pairs in
  Trace.set_int sp "candidates" pairs.candidates;
  Trace.set_bool sp "residual" (residual <> None);
  Trace.set_int sp "residual_passed" pairs.passed;
  result

(* Every (left, right) pair in left-major order is a candidate, and the
   residual is tested one block of candidates at a time, so memory stays
   bounded whatever [nl · nr] is. *)
let nested_loop_join ?need (pred : Expr.t) (lb : Batch.t) (rb : Batch.t) :
    Batch.t =
  let out_schema = Schema.concat (Batch.schema lb) (Batch.schema rb) in
  let nl = Batch.length lb and nr = Batch.length rb in
  let pairs =
    pairs_create ?need ~cap:16 ~block:(nl * nr) out_schema lb rb (Some pred)
  in
  Scratch.scoped @@ fun get ->
  let rows =
    match rb.Batch.sel with
    | Some sel -> sel
    | None ->
        let rows = get (max nr 1) in
        for ri = 0 to nr - 1 do
          rows.(ri) <- ri
        done;
        rows
  in
  for li = 0 to nl - 1 do
    offer_run pairs (phys lb.Batch.sel li) rows 0 nr
  done;
  pairs_finish pairs

let join ?need sp pred (lb : Batch.t) (rb : Batch.t) : Batch.t =
  match Expr.equi_keys ~left_arity:(Schema.arity (Batch.schema lb)) pred with
  | [], _ ->
      Trace.set_str sp "strategy" "nested_loop";
      Trace.set_int sp "pairs" (Batch.length lb * Batch.length rb);
      nested_loop_join ?need pred lb rb
  | keys, residual ->
      Trace.set_str sp "strategy" "hash";
      Trace.set_int sp "equi_keys" (List.length keys);
      hash_join ?need sp keys residual lb rb

(* ---- aggregate / distinct ---- *)

(* Groups in first-appearance order, each folding its rows in row order
   into {!Gacc} slots, as [Exec.aggregate] folds [Agg.acc]s.  The keyset
   and the slots start small and grow with the groups. *)
let aggregate sp (group : Algebra.proj list) (aggs : Algebra.agg_spec list)
    (b : Batch.t) : Batch.t =
  let child_schema = Batch.schema b in
  let out_schema = Neval.agg_out_schema child_schema group aggs in
  let n = Batch.length b in
  let gcols =
    Array.of_list (List.map (fun (p : Algebra.proj) -> Veval.eval b p.expr) group)
  in
  let agg_arr = Array.of_list aggs in
  let inputs =
    Array.map
      (fun (spec : Algebra.agg_spec) ->
        Option.map (Veval.eval b) (Agg.input_expr spec.func))
      agg_arr
  in
  let key = Key.create [| gcols |] in
  key_path sp key;
  let accs = Gacc.create ~cap:8 agg_arr inputs in
  let reps = Ibuf.create () in
  for i = 0 to n - 1 do
    (* [gcols] are dense: logical index = physical index *)
    let g = Key.intern key ~src:0 ~row:i in
    if g = Gacc.groups accs then begin
      Gacc.add_group accs;
      Ibuf.push reps i
    end;
    Gacc.step accs g i
  done;
  Key.release key;
  (* aggregation over no rows without GROUP BY: one all-empty group *)
  if group = [] && Gacc.groups accs = 0 then begin
    Gacc.add_group accs;
    Ibuf.push reps 0
  end;
  let ng = Gacc.groups accs in
  let o = Gacc.out accs ng in
  for g = 0 to ng - 1 do
    Gacc.emit accs g o g
  done;
  let agg_cols = Gacc.cols accs o ~schema:child_schema ng in
  Gacc.release accs;
  let rep_arr = Ibuf.take reps in
  let key_cols = Array.map (fun c -> Batch.gather_col c rep_arr) gcols in
  Batch.of_cols out_schema ng (Array.append key_cols agg_cols)

let distinct sp (b : Batch.t) : Batch.t =
  let n = Batch.length b in
  let key = Key.create ~hint:n ~sels:[| b.Batch.sel |] [| b.Batch.cols |] in
  key_path sp key;
  let keep = Ibuf.create ~cap:(max n 1) () in
  for li = 0 to n - 1 do
    let pi = phys b.Batch.sel li in
    let before = Key.count key in
    if Key.intern key ~src:0 ~row:pi = before then Ibuf.push keep pi
  done;
  Key.release key;
  let sel = Ibuf.take keep in
  Batch.with_sel b sel

(* ---- temporal operators: one sort, one sweep ---- *)

(* Every sweep below orders the (group, time) endpoints of its whole
   batch with one radix sort and then walks each group's slice of the
   sorted array. *)

(* [group_order ~get ~ids ~ng ~n gid tm]: items [0 .. n-1], item [i] in
   group [gid.(i)] (dense, below [ng]) at time [tm.(i)], in group-major
   order, by time and then by index within a group.  Returns [(off, out)]:
   group [g]'s items are [out.(off.(g)) .. out.(off.(g+1) - 1)], as item
   indices with [~ids:true], else as their times.  Both arrays come from
   [get].

   The order is one LSD radix sort ({!Isort.sort_below}) of the packed
   keys [((gid · span + (t − t_lo)) · 2^b) + i], where [span] covers the
   times and [b] is 0 without [~ids].  Times are arbitrary ints, so when
   [ng · span · 2^b] does not fit an int (a huge or overflowing time
   range) a comparison sort stands in: stable by time, then a stable
   counting sort by group. *)
let group_order ~get ~ids ~ng ~n (gid : int array) (tm : int array) :
    int array * int array =
  let lo = ref (if n = 0 then 0 else max_int) in
  let hi = ref (if n = 0 then 0 else min_int) in
  for i = 0 to n - 1 do
    let t = tm.(i) in
    if t < !lo then lo := t;
    if t > !hi then hi := t
  done;
  let lo = !lo and range = !hi - !lo (* negative when it overflows *) in
  let ib = if ids then Isort.index_bits n else 0 in
  if range >= 0 && range < max_int && ng <= (max_int lsr ib) / (range + 1)
  then begin
    let span = range + 1 and mask = (1 lsl ib) - 1 in
    let out = get (max n 1) in
    for i = 0 to n - 1 do
      out.(i) <- (((gid.(i) * span) + (tm.(i) - lo)) lsl ib) lor (i land mask)
    done;
    Isort.sort_below ~len:n out ~bound:((ng * span) lsl ib);
    (* decode in place: group [g]'s keys lie in [\[g·w, (g+1)·w)] *)
    let w = span lsl ib in
    let off = get (ng + 1) in
    off.(0) <- 0;
    let g = ref 0 and limit = ref w in
    for k = 0 to n - 1 do
      let key = out.(k) in
      while key >= !limit do
        incr g;
        off.(!g) <- k;
        limit := !limit + w
      done;
      out.(k) <-
        (if ids then key land mask else lo + ((key lsr ib) - (!g * span)))
    done;
    for g = !g + 1 to ng do
      off.(g) <- n
    done;
    (off, out)
  end
  else begin
    let ord = Isort.perm_prefix tm n in
    let gord = get (max n 1) in
    for k = 0 to n - 1 do
      gord.(k) <- gid.(ord.(k))
    done;
    let off, out = buckets ~get ~ngid:ng ~n gord (Some ord) in
    if not ids then
      for k = 0 to n - 1 do
        out.(k) <- tm.(out.(k))
      done;
    (off, out)
  end

(* Drop repeated times within each group's slice of a {!group_order}
   result, compacting in place and rewriting [off]. *)
let dedup_groups ~ng (off : int array) (pts : int array) : unit =
  let w = ref 0 in
  for g = 0 to ng - 1 do
    let first = off.(g) and stop = off.(g + 1) in
    off.(g) <- !w;
    for k = first to stop - 1 do
      if k = first || pts.(k) <> pts.(!w - 1) then begin
        pts.(!w) <- pts.(k);
        incr w
      end
    done
  done;
  off.(ng) <- !w

(** Multiset coalescing (Section 9): per distinct data prefix, sweep the
    interval endpoints in time order, emitting maximal constant-count
    segments with the count as duplicate rows — same segments, same
    emission order as [Ops.coalesce].  Begins and ends are ordered for
    the whole batch by two {!group_order}s; the sweep merges each
    group's two slices.  [lap] is called with each phase's name as it
    ends: [intern] (group ids and sizes), [sort_begins], [sort_ends],
    [sweep] (both passes) and [gather]. *)
let coalesce ?(lap = ignore) sp (b : Batch.t) : Batch.t =
  let n = Batch.length b in
  let k = Array.length b.Batch.cols in
  let pb, pe = Batch.period_arrays b in
  let prefix = Array.sub b.Batch.cols 0 (k - 2) in
  let key = Key.create ~hint:n ~sels:[| b.Batch.sel |] [| prefix |] in
  key_path sp key;
  Scratch.scoped @@ fun get ->
  let gids = get (max n 1) in
  let tb = get (max n 1) and te = get (max n 1) in
  for li = 0 to n - 1 do
    let pi = phys b.Batch.sel li in
    gids.(li) <- Key.intern key ~src:0 ~row:pi;
    tb.(li) <- pb.(pi);
    te.(li) <- pe.(pi)
  done;
  let ng = Key.count key in
  (* a group of one row coalesces to itself (to nothing when its period
     is empty) without sorting, so only the rows of larger groups enter
     the sort *)
  let size = get (max ng 1) in
  Array.fill size 0 ng 0;
  for li = 0 to n - 1 do
    size.(gids.(li)) <- size.(gids.(li)) + 1
  done;
  let m = ref 0 in
  for li = 0 to n - 1 do
    if size.(gids.(li)) > 1 then begin
      gids.(!m) <- gids.(li);
      tb.(!m) <- tb.(li);
      te.(!m) <- te.(li);
      incr m
    end
  done;
  lap "intern";
  (* a group's begins and its ends have the same count, so one [off]
     slices both *)
  let off, bs = group_order ~get ~ids:false ~ng ~n:!m gids tb in
  lap "sort_begins";
  let _, es = group_order ~get ~ids:false ~ng ~n:!m gids te in
  lap "sort_ends";
  (* Per group, events are +1 at begins and -1 at ends, one time point
     at a time; a maximal segment closes where the count of open
     intervals changes and is emitted as [emit row b e count]. *)
  let sweep emit =
    for g = 0 to ng - 1 do
      let row = Key.entry_row key g in
      if size.(g) = 1 then begin
        if pb.(row) < pe.(row) then emit row pb.(row) pe.(row) 1
      end
      else begin
        let stop = off.(g + 1) in
        let i = ref off.(g) and j = ref off.(g) in
        let seg_start = ref (Int.min bs.(!i) es.(!j)) and count = ref 0 in
        while !i < stop || !j < stop do
          let t =
            if !i = stop then es.(!j)
            else if !j = stop then bs.(!i)
            else Int.min bs.(!i) es.(!j)
          in
          let delta = ref 0 in
          while !i < stop && bs.(!i) = t do
            incr delta;
            incr i
          done;
          while !j < stop && es.(!j) = t do
            decr delta;
            incr j
          done;
          if !delta <> 0 then begin
            if t > !seg_start && !count > 0 then emit row !seg_start t !count;
            seg_start := t;
            count := !count + !delta
          end
        done
      end
    done
  in
  (* two passes: count the output rows, then write them *)
  let nout = ref 0 and segments = ref 0 in
  sweep (fun _ _ _ count ->
      incr segments;
      nout := !nout + count);
  let nout = !nout in
  let rep = get (max nout 1) in
  let ob = Array.make nout 0 and oe = Array.make nout 0 in
  let w = ref 0 in
  sweep (fun row b e count ->
      for k = !w to !w + count - 1 do
        rep.(k) <- row;
        ob.(k) <- b;
        oe.(k) <- e
      done;
      w := !w + count);
  lap "sweep";
  Key.release key;
  Trace.set_int sp "groups" ng;
  Trace.set_int sp "endpoints" (2 * n);
  Trace.set_int sp "segments" !segments;
  let cols =
    Array.append
      (Array.map (fun c -> Batch.gather_col ~len:nout c rep) prefix)
      [|
        { Batch.data = Batch.Ints ob; nulls = None };
        { Batch.data = Batch.Ints oe; nulls = None };
      |]
  in
  lap "gather";
  Batch.of_cols (Batch.schema b) nout cols

(* The endpoint table of N_G(L, R) and of its mirror N_G(R, L): every
   group's endpoints over L ∪ R, ascending and deduplicated, plus each
   input row's group id (by logical row). *)
type endpoint_table = {
  off : int array;  (** group [g]'s points: [pts.(off.(g) .. off.(g+1) - 1)] *)
  pts : int array;
  lgids : int array;
  rgids : int array;
  ng : int;
  direct : bool;  (** whether the group keys were addressed directly *)
}

let endpoint_table ~get (group_cols : int list) (lb : Batch.t) (rb : Batch.t) :
    endpoint_table =
  let lpb, lpe = Batch.period_arrays lb in
  let rpb, rpe = Batch.period_arrays rb in
  let lg = Array.of_list (List.map (fun i -> lb.Batch.cols.(i)) group_cols) in
  let rg = Array.of_list (List.map (fun i -> rb.Batch.cols.(i)) group_cols) in
  let nl = Batch.length lb and nr = Batch.length rb in
  (* a self-split (DISTINCT's N_G(R, R)) adds no endpoints from its
     right side *)
  let same = lb == rb in
  let key =
    if same then Key.create ~hint:nl ~sels:[| lb.Batch.sel |] [| lg |]
    else
      Key.create ~hint:(nl + nr) ~sels:[| lb.Batch.sel; rb.Batch.sel |] [| lg; rg |]
  in
  let m = 2 * (if same then nl else nl + nr) in
  let eg = get (max m 1) and et = get (max m 1) in
  let intern src (b : Batch.t) pb pe n gids base =
    for li = 0 to n - 1 do
      let pi = phys b.Batch.sel li in
      let g = Key.intern key ~src ~row:pi in
      gids.(li) <- g;
      eg.(base + (2 * li)) <- g;
      eg.(base + (2 * li) + 1) <- g;
      et.(base + (2 * li)) <- pb.(pi);
      et.(base + (2 * li) + 1) <- pe.(pi)
    done
  in
  let lgids = get (max nl 1) in
  intern 0 lb lpb lpe nl lgids 0;
  let rgids =
    if same then lgids
    else begin
      let rgids = get (max nr 1) in
      intern 1 rb rpb rpe nr rgids (2 * nl);
      rgids
    end
  in
  let ng = Key.count key and direct = Key.direct key in
  Key.release key;
  let off, pts = group_order ~get ~ids:false ~ng ~n:m eg et in
  dedup_groups ~ng off pts;
  { off; pts; lgids; rgids; ng; direct }

(** Cut every row of [b] (group ids [gids], by logical row) at the points
    of its group strictly inside its period: the split operator N_G
    (Def. 8.3) once [t] holds the endpoints of both inputs.  Fragments
    come out per row, forward in time, like [Ops.split]. *)
let cut ~get sp (t : endpoint_table) ~(gids : int array) (b : Batch.t) :
    Batch.t =
  let pb, pe = Batch.period_arrays b in
  let n = Batch.length b in
  (* pass 1: a row's begin is a point of its group, so one binary search
     finds the first inner point; count the fragments *)
  let first = get (max n 1) in
  let total = ref 0 in
  for li = 0 to n - 1 do
    let pi = phys b.Batch.sel li in
    let g = gids.(li) in
    let bt = pb.(pi) and et = pe.(pi) in
    let lo = ref t.off.(g) and hi = ref t.off.(g + 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if t.pts.(mid) <= bt then lo := mid + 1 else hi := mid
    done;
    first.(li) <- !lo;
    let stop = t.off.(g + 1) and k = ref !lo in
    while !k < stop && t.pts.(!k) < et do
      incr k
    done;
    total := !total + (!k - !lo) + 1
  done;
  let total = !total in
  (* pass 2: write the fragments *)
  let rep = get (max total 1) in
  let ob = Array.make total 0 and oe = Array.make total 0 in
  let w = ref 0 in
  for li = 0 to n - 1 do
    let pi = phys b.Batch.sel li in
    let stop = t.off.(gids.(li) + 1) and et = pe.(pi) in
    let prev = ref pb.(pi) and k = ref first.(li) in
    while !k < stop && t.pts.(!k) < et do
      rep.(!w) <- pi;
      ob.(!w) <- !prev;
      oe.(!w) <- t.pts.(!k);
      prev := t.pts.(!k);
      incr w;
      incr k
    done;
    rep.(!w) <- pi;
    ob.(!w) <- !prev;
    oe.(!w) <- et;
    incr w
  done;
  Trace.set_str sp "keys" (if t.direct then "direct" else "hashed");
  Trace.set_int sp "endpoint_keys" t.ng;
  Trace.set_int sp "endpoints" t.off.(t.ng);
  Trace.set_int sp "fragments" total;
  let k = Array.length b.Batch.cols in
  let cols =
    Array.append
      (Array.map
         (fun c -> Batch.gather_col ~len:total c rep)
         (Array.sub b.Batch.cols 0 (k - 2)))
      [|
        { Batch.data = Batch.Ints ob; nulls = None };
        { Batch.data = Batch.Ints oe; nulls = None };
      |]
  in
  Batch.of_cols (Batch.schema b) total cols

(** The split operator N_G (Def. 8.3): every left row is cut at the
    endpoints of all rows (of both inputs) agreeing with it on the group
    columns. *)
let split sp (group_cols : int list) (lb : Batch.t) (rb : Batch.t) : Batch.t =
  Scratch.scoped @@ fun get ->
  let t = endpoint_table ~get group_cols lb rb in
  cut ~get sp t ~gids:t.lgids lb

(** Fused pre-aggregated split+aggregate (Section 9), reproducing
    [Ops.split_agg]'s segments and values bit for bit.  Rows are
    pre-aggregated per (group, b, e) into entries in first-appearance
    order; one {!group_order} of the entries' begins and ends gives
    every group's segment endpoints and its entries in begin and in end
    order.

    The entries' states are {!Gacc} groups.  When every sum/avg/min/max
    input is an int column, a sweep enters and leaves the entries in
    (group, begin) and (group, end) order, adding and subtracting their
    typed counters, and writes each segment's values straight into typed
    output columns.  Otherwise (float sums,
    whose rounding depends on the order of additions) each segment folds
    its covering entries in [Ops]'s order: first appearance, stable by
    begin, the latest activated first. *)
let split_agg sp ~(group : int list) ~(aggs : Algebra.agg_spec list)
    ~(gap : (int * int) option) (child : Batch.t) : Batch.t =
  let child_schema = Batch.schema child in
  let n = Batch.length child in
  let agg_arr = Array.of_list aggs in
  let naggs = Array.length agg_arr in
  let pb, pe = Batch.period_arrays child in
  let gcols = Array.of_list (List.map (fun i -> child.Batch.cols.(i)) group) in
  let inputs =
    Array.map
      (fun (spec : Algebra.agg_spec) ->
        Option.map (Veval.eval child) (Agg.input_expr spec.func))
      agg_arr
  in
  let key = Key.create ~hint:n ~sels:[| child.Batch.sel |] [| gcols |] in
  key_path sp key;
  Scratch.scoped @@ fun get ->
  (* pre-aggregate per (group id, b, e); entries keep first-appearance
     order.  The entry index is open-addressed on the int triple
     directly — no tuple boxing, no polymorphic hash. *)
  let pre_cap = ref 16 in
  while !pre_cap < 2 * max n 1 do
    pre_cap := !pre_cap * 2
  done;
  let pre_slots = get !pre_cap (* entry id + 1; 0 = empty *) in
  Array.fill pre_slots 0 !pre_cap 0;
  let pre_mask = !pre_cap - 1 in
  let e_g = get (max n 1) and e_b = get (max n 1) and e_e = get (max n 1) in
  let pre_slot g b e =
    let h =
      let h =
        (g * 0x9E3779B97F4A7C1) lxor (b * 0x85EBCA6B) lxor (e * 0xC2B2AE35)
      in
      (h lxor (h lsr 31)) land max_int
    in
    (* linear probing, as a loop: no closure per row *)
    let i = ref (h land pre_mask) in
    while
      let s = pre_slots.(!i) in
      s <> 0
      &&
      let id = s - 1 in
      not (e_g.(id) = g && e_b.(id) = b && e_e.(id) = e)
    do
      i := (!i + 1) land pre_mask
    done;
    !i
  in
  let n_entries = ref 0 in
  (* the entries' states, one {!Gacc} group per entry: typed counters,
     exactly [Agg.step]'s effect, when every sum/avg/min/max input is an
     int column; with counters the sweep enters and leaves entries
     instead of folding them: int addition is associative and equal ints
     are indistinguishable, so neither the order of additions nor the
     fold's tie-breaking can show.  Other inputs (float sums depend on
     the order of additions) keep [Agg.acc]s and the fold. *)
  let pre = Gacc.create ~sweep:true ~cap:n agg_arr inputs in
  for li = 0 to n - 1 do
    let pi = phys child.Batch.sel li in
    let g = Key.intern key ~src:0 ~row:pi in
    let b = pb.(pi) and e = pe.(pi) in
    let slot = pre_slot g b e in
    let id =
      if pre_slots.(slot) <> 0 then pre_slots.(slot) - 1
      else begin
        let id = !n_entries in
        incr n_entries;
        pre_slots.(slot) <- id + 1;
        e_g.(id) <- g;
        e_b.(id) <- b;
        e_e.(id) <- e;
        Gacc.add_group pre;
        id
      end
    in
    Gacc.step pre id li
  done;
  let ne = !n_entries in
  (* the empty group must exist (and span the time domain) for
     gap-covering aggregation; with [group = []] it is the one group *)
  if Option.is_some gap && Key.count key = 0 then
    ignore (Key.intern key ~src:0 ~row:0);
  let ng = Key.count key in
  (* every group's segment endpoints: its entries' periods, plus the
     domain bounds for the gap-covering group *)
  let m = (2 * ne) + if Option.is_some gap then 2 else 0 in
  let eg = get (max m 1) and et = get (max m 1) in
  for id = 0 to ne - 1 do
    eg.(2 * id) <- e_g.(id);
    eg.((2 * id) + 1) <- e_g.(id);
    et.(2 * id) <- e_b.(id);
    et.((2 * id) + 1) <- e_e.(id)
  done;
  (match gap with
  | Some (tmin, tmax) ->
      eg.(2 * ne) <- 0;
      eg.((2 * ne) + 1) <- 0;
      et.(2 * ne) <- tmin;
      et.((2 * ne) + 1) <- tmax
  | None -> ());
  (* One sort orders every endpoint item by (group, time, item), and one
     pass splits the result three ways: each group's distinct points
     [pts.(poff.(g) ..)], and its entries ordered by begin and by end,
     ties in first-appearance order ([by_begin]/[by_end] from the items
     [2·id] and [2·id + 1], both sliced by [eoff]) *)
  let ioff, items = group_order ~get ~ids:true ~ng ~n:m eg et in
  let pts = get (max m 1) and poff = get (ng + 1) and eoff = get (ng + 1) in
  let by_begin = get (max ne 1) and by_end = get (max ne 1) in
  let np = ref 0 and nb = ref 0 and nend = ref 0 in
  for g = 0 to ng - 1 do
    poff.(g) <- !np;
    eoff.(g) <- !nb;
    for k = ioff.(g) to ioff.(g + 1) - 1 do
      let item = items.(k) in
      let t = et.(item) in
      if k = ioff.(g) || t <> pts.(!np - 1) then begin
        pts.(!np) <- t;
        incr np
      end;
      if item < 2 * ne then
        if item land 1 = 0 then begin
          by_begin.(!nb) <- item lsr 1;
          incr nb
        end
        else begin
          by_end.(!nend) <- item lsr 1;
          incr nend
        end
    done
  done;
  poff.(ng) <- !np;
  eoff.(ng) <- !nb;
  (* at most one output row per segment *)
  let upper = ref 0 in
  for g = 0 to ng - 1 do
    upper := !upper + max 0 (poff.(g + 1) - poff.(g) - 1)
  done;
  let upper = !upper in
  let rep = get (max upper 1) in
  let ob = Array.make upper 0 and oe = Array.make upper 0 in
  let nout = ref 0 in
  let emit g s =
    let k = !nout in
    rep.(k) <- Key.entry_row key g;
    ob.(k) <- pts.(s);
    oe.(k) <- pts.(s + 1);
    incr nout;
    k
  in
  let o = Gacc.out pre upper in
  if Gacc.typed pre then begin
    (* running state per spec in [run]'s one group: covering rows,
       non-null inputs and their sum; min/max in lazy-expiry heaps
       (maxima as [lnot v], which reverses the order without overflow),
       popped at each segment *)
    let run = Gacc.create ~sweep:true ~cap:1 agg_arr inputs in
    Gacc.add_group run;
    let heaps =
      Array.map
        (fun (spec : Algebra.agg_spec) ->
          match spec.Algebra.func with
          | Agg.Min _ | Agg.Max _ -> Some (Iheap.create ())
          | _ -> None)
        agg_arr
    in
    let push_extrema id e =
      for j = 0 to naggs - 1 do
        match heaps.(j) with
        | Some h when Gacc.count pre id j > 0 -> (
            let v = Gacc.get_int pre id j in
            match agg_arr.(j).Algebra.func with
            | Agg.Min _ -> Iheap.push h v e
            | _ -> Iheap.push h (lnot v) e)
        | _ -> ()
      done
    in
    let fill_gaps = Option.is_some gap in
    for g = 0 to ng - 1 do
      Gacc.reset run;
      for j = 0 to naggs - 1 do
        Option.iter Iheap.clear heaps.(j)
      done;
      (* live entries (non-empty periods) enter at their begin and
         leave at their end *)
      let enter = ref eoff.(g) and leave = ref eoff.(g) in
      let stop = eoff.(g + 1) in
      let n_active = ref 0 in
      for s = poff.(g) to poff.(g + 1) - 2 do
        let sb = pts.(s) in
        while !leave < stop && e_e.(by_end.(!leave)) <= sb do
          let id = by_end.(!leave) in
          if e_b.(id) < e_e.(id) then begin
            Gacc.shift ~sign:(-1) pre id run;
            decr n_active
          end;
          incr leave
        done;
        while !enter < stop && e_b.(by_begin.(!enter)) <= sb do
          let id = by_begin.(!enter) in
          if e_b.(id) < e_e.(id) then begin
            Gacc.shift ~sign:1 pre id run;
            push_extrema id e_e.(id);
            incr n_active
          end;
          incr enter
        done;
        (* a heap holds a live entry exactly when its spec counts a
           non-null input: its top is then the running extremum *)
        for j = 0 to naggs - 1 do
          match heaps.(j) with
          | Some h ->
              while Iheap.size h > 0 && Iheap.top_expiry h <= sb do
                Iheap.pop h
              done;
              if Iheap.size h > 0 then
                Gacc.set_int run 0 j
                  (match agg_arr.(j).Algebra.func with
                  | Agg.Min _ -> Iheap.top h
                  | _ -> lnot (Iheap.top h))
          | None -> ()
        done;
        if !n_active > 0 || fill_gaps then Gacc.emit run 0 o (emit g s)
      done
    done;
    Gacc.release run
  end
  else
    (* every entry in (group, begin, first appearance) order; a
       segment's covering entries fold latest-activated first *)
    for g = 0 to ng - 1 do
      let next = ref eoff.(g) and stop = eoff.(g + 1) in
      let active = ref [] in
      for s = poff.(g) to poff.(g + 1) - 2 do
        let sb = pts.(s) in
        while !next < stop && e_b.(by_begin.(!next)) <= sb do
          let id = by_begin.(!next) in
          if e_e.(id) > sb then active := (e_e.(id), id) :: !active;
          incr next
        done;
        active := List.filter (fun (e, _) -> e > sb) !active;
        match (!active, gap) with
        | [], None -> ()
        | covering, _ ->
            let k = emit g s in
            Array.iteri
              (fun j (spec : Algebra.agg_spec) ->
                Gacc.set_value o j k
                  (Agg.final spec.func
                     (List.fold_left
                        (fun acc (_, id) -> Agg.combine acc (Gacc.acc pre id j))
                        Agg.empty covering)))
              agg_arr
      done
    done;
  let agg_cols = Gacc.cols pre o ~schema:child_schema !nout in
  Gacc.release pre;
  Key.release key;
  (match sp with
  | None -> ()
  | Some _ ->
      Trace.set_int sp "groups" ng;
      Trace.set_int sp "pre_aggregates" ne;
      Trace.set_int sp "endpoints" poff.(ng));
  let out_schema =
    let gattrs = List.map (fun i -> Schema.get child_schema i) group in
    let aattrs =
      List.map
        (fun (a : Algebra.agg_spec) ->
          Schema.attr a.agg_name (Agg.output_ty child_schema a.func))
        aggs
    in
    Schema.make
      (gattrs @ aattrs
      @ [ Schema.attr "__b" Value.TInt; Schema.attr "__e" Value.TInt ])
  in
  let nout = !nout in
  let cols =
    Array.concat
      [
        Array.map (fun c -> Batch.gather_col ~len:nout c rep) gcols;
        agg_cols;
        [|
          { Batch.data = Batch.Ints (Gacc.prefix_of ob nout); nulls = None };
          { Batch.data = Batch.Ints (Gacc.prefix_of oe nout); nulls = None };
        |];
      ]
  in
  Batch.of_cols out_schema nout cols

(* ---- the interpreter loop ---- *)

(* one operator's span, as the row engine opens it: the engine tag
   first, the output cardinality last *)
let op_span ctx label (f : Trace.span option -> Batch.t) : Batch.t =
  Trace.with_span ctx.obs label @@ fun sp ->
  Trace.set_str sp "engine" "vec";
  let result = f sp in
  (match sp with
  | None -> ()
  | Some _ -> Trace.set_int sp "rows_out" (Batch.length result));
  result

(* the mirrored splits of EXCEPT ALL are built from one shared subplan
   per side; a rebuilt copy compares structurally equal *)
let same_plan (a : Algebra.t) (b : Algebra.t) = a == b || a = b

(* [need] (default: all) lists the output columns of [q] its consumer
   reads; a join and an index read through a DML delta gather only
   those.  Project and Agg pass down the columns they read (a Project
   skips the plain column references its consumer does not read), Select
   adds its predicate's columns to its own [need] unless an exact index
   probe answers it, and every other operator reads all of its input. *)
let rec eval_batch ?need (ctx : ctx) (q : Algebra.t) : Batch.t =
  op_span ctx (Exec.op_label q) @@ fun sp ->
  match q with
  | Algebra.Rel n ->
      let b = Table.columnar (Database.find ctx.db n) in
      rows_in sp [ b ];
      b
  | ConstRel (schema, tuples) ->
      let b = Batch.of_rows schema (Array.of_list tuples) in
      rows_in sp [ b ];
      b
  | Select (p, q) -> (
      let scan () =
        let need = Option.map (List.append (Expr.cols p)) need in
        let b = eval_batch ?need ctx q in
        rows_in sp [ b ];
        select sp p b
      in
      match q with
      | Algebra.Rel n when Database.is_period ctx.db n -> (
          match
            if ctx.use_index then index_select ?need ctx.db sp p n else None
          with
          | Some res -> res
          | None ->
              Trace.set_str sp "access" "scan";
              scan ())
      | _ -> scan ())
  | Project (projs, q) ->
      let b = eval_batch ~need:(project_need need projs) ctx q in
      rows_in sp [ b ];
      project ?need projs b
  | Join (p, l, r) ->
      let lb = eval_batch ctx l in
      let rb = eval_batch ctx r in
      rows_in sp [ lb; rb ];
      join ?need sp p lb rb
  | Union (l, r) ->
      let lb = eval_batch ctx l in
      let rb = eval_batch ctx r in
      rows_in sp [ lb; rb ];
      union lb rb
  | Diff (Split (g, l, r), Split (g', r', l'))
    when g = g' && same_plan l l' && same_plan r r' ->
      let a, b = mirrored_splits ctx g l r in
      rows_in sp [ a; b ];
      except_all sp a b
  | Diff (l, r) ->
      let lb = eval_batch ctx l in
      let rb = eval_batch ctx r in
      rows_in sp [ lb; rb ];
      except_all sp lb rb
  | Agg (group, aggs, q) ->
      let need =
        List.concat_map (fun (p : Algebra.proj) -> Expr.cols p.expr) group
        @ List.concat_map
            (fun (a : Algebra.agg_spec) ->
              Option.fold ~none:[] ~some:Expr.cols (Agg.input_expr a.func))
            aggs
      in
      let b = eval_batch ~need ctx q in
      rows_in sp [ b ];
      aggregate sp group aggs b
  | Distinct q ->
      let b = eval_batch ctx q in
      rows_in sp [ b ];
      distinct sp b
  | Coalesce q ->
      let b = eval_batch ctx q in
      rows_in sp [ b ];
      coalesce sp b
  | Split (g, l, r) ->
      (* avoid evaluating a shared subquery twice *)
      if l == r then begin
        let b = eval_batch ctx l in
        rows_in sp [ b ];
        split sp g b b
      end
      else begin
        let lb = eval_batch ctx l in
        let rb = eval_batch ctx r in
        rows_in sp [ lb; rb ];
        split sp g lb rb
      end
  | Split_agg sa ->
      let b = eval_batch ctx sa.sa_child in
      rows_in sp [ b ];
      if sa.sa_gap <> None && sa.sa_group <> [] then
        (* the rewriter sets a gap only without GROUP BY; Plan_check
           rejects the converse (TKR207) *)
        invalid_arg "vec: grouped split_agg with a gap"
      else
        split_agg sp ~group:sa.sa_group ~aggs:sa.sa_aggs ~gap:sa.sa_gap b

(* REWR's EXCEPT ALL, [Diff (N_G(L, R), N_G(R, L))]: L and R are
   evaluated once, under the first split's span, and both splits cut
   against one endpoint table over L ∪ R; the second split's span says
   so with [shared_endpoints]. *)
and mirrored_splits ctx g l r : Batch.t * Batch.t =
  Scratch.scoped @@ fun get ->
  let shared = ref None in
  let a =
    op_span ctx "split" @@ fun sp ->
    let lb = eval_batch ctx l in
    let rb = eval_batch ctx r in
    rows_in sp [ lb; rb ];
    let t = endpoint_table ~get g lb rb in
    shared := Some (t, lb, rb);
    cut ~get sp t ~gids:t.lgids lb
  in
  let t, lb, rb = Option.get !shared in
  let b =
    op_span ctx "split" @@ fun sp ->
    rows_in sp [ rb; lb ];
    Trace.set_bool sp "shared_endpoints" true;
    cut ~get sp t ~gids:t.rgids rb
  in
  (a, b)

(** Evaluate a plan on the vectorized engine.  [use_index] (default off)
    answers index-answerable period-table selections through the temporal
    interval index; output is byte-identical either way. *)
let eval ?(obs = Trace.disabled) ?(use_index = false) (db : Database.t)
    (q : Algebra.t) : Table.t =
  Table.of_batch (eval_batch { obs; db; use_index } q)

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
module Table = Tkr_engine.Table
module Database = Tkr_engine.Database
module Exec = Tkr_engine.Exec
module Idx_cache = Tkr_engine.Idx_cache
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
   probe the interval index for the candidate physical rows, install them
   as the batch's selection, and let [Veval.filter] re-apply the full
   predicate over that view.  The probe bounds are necessary conditions
   and candidates come back in ascending physical order (= the identity
   selection's order), so the surviving selection vector is exactly the
   one the full filter would produce.  [None] when the predicate is not
   index-answerable (the caller scans). *)
let index_select (db : Database.t) sp pred (n : string) : Batch.t option =
  let t = Database.find db n in
  let arity = Schema.arity (Table.schema t) in
  match Tkr_idx.Probe.bounds ~arity pred with
  | None -> None
  | Some { Tkr_idx.Probe.b_hi; e_lo } -> (
      match Idx_cache.get db n with
      | None -> None
      | Some idx ->
          let b = Batch.of_table t in
          let cand = Tkr_idx.Interval.probe idx ~b_hi ~e_lo in
          Tkr_idx.Stats.record_probes ~probes:1
            ~candidates:(Array.length cand);
          rows_in sp [ b ];
          Trace.set_str sp "access" "index";
          Trace.set_int sp "candidates" (Array.length cand);
          Trace.set_int sp "conjuncts" (List.length (Expr.conjuncts pred));
          let view = Batch.with_sel b cand in
          Some (Batch.with_sel b (Veval.filter view pred)))

(* ---- project ---- *)

let project (projs : Algebra.proj list) (b : Batch.t) : Batch.t =
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
        (List.map (fun (p : Algebra.proj) -> Veval.eval b p.expr) projs)
    in
    Batch.of_cols out_schema (Batch.length b) cols

(* ---- union / except ---- *)

let union (a : Batch.t) (b : Batch.t) : Batch.t =
  if not (Schema.union_compatible (Batch.schema a) (Batch.schema b)) then
    invalid_arg "engine: UNION ALL over incompatible schemas";
  Batch.append a b

(* EXCEPT ALL via counting, like the oracle: every right row cancels one
   matching left row; surviving left rows keep their order. *)
let except_all (a : Batch.t) (b : Batch.t) : Batch.t =
  if not (Schema.union_compatible (Batch.schema a) (Batch.schema b)) then
    invalid_arg "engine: EXCEPT ALL over incompatible schemas";
  let nb = Batch.length b in
  let key = Key.create ~hint:nb [| b.Batch.cols; a.Batch.cols |] in
  (* group ids are dense and at most [nb] *)
  let counts = Scratch.get (max nb 1) in
  Array.fill counts 0 (max nb 1) 0;
  for ri = 0 to nb - 1 do
    let g = Key.intern key ~src:0 ~row:(Batch.phys b ri) in
    counts.(g) <- counts.(g) + 1
  done;
  let na = Batch.length a in
  let keep = Ibuf.create ~cap:na () in
  for li = 0 to na - 1 do
    let pi = Batch.phys a li in
    let g = Key.lookup key ~src:1 ~row:pi in
    if g >= 0 && counts.(g) > 0 then counts.(g) <- counts.(g) - 1
    else Ibuf.push keep pi
  done;
  Key.release key;
  Scratch.release counts;
  let sel = Ibuf.take keep in
  Batch.with_sel a sel

(* ---- join ---- *)

(* An output column no consumer reads: empty, never indexed. *)
let placeholder = { Batch.data = Batch.Ints [||]; nulls = None }

(* Filter the candidate pairs [(lp.(k), rp.(k))], [k < npairs], by
   [residual] and gather the joined output.  Only the columns the
   residual references are gathered before the filter; the survivors are
   compacted into [lp]/[rp] in place (the filter's selection is
   ascending) and the output gather happens on them, for the columns in
   [need] (default: all) only — the rest are {!placeholder}s. *)
let pair_result ?need out_schema (lb : Batch.t) (rb : Batch.t)
    (lp : int array) (rp : int array) (npairs : int)
    (residual : Expr.t option) : Batch.t * int =
  let la = Array.length lb.Batch.cols and ra = Array.length rb.Batch.cols in
  let passed =
    match residual with
    | None -> npairs
    | Some p ->
        let needed = List.sort_uniq Int.compare (Expr.cols p) in
        let cols = Array.make (la + ra) placeholder in
        List.iter
          (fun j ->
            cols.(j) <-
              (if j < la then Batch.gather_col ~len:npairs lb.Batch.cols.(j) lp
               else Batch.gather_col ~len:npairs rb.Batch.cols.(j - la) rp))
          needed;
        let pview = Batch.of_cols out_schema npairs cols in
        let sel = Veval.filter pview p in
        Array.iteri
          (fun k i ->
            lp.(k) <- lp.(i);
            rp.(k) <- rp.(i))
          sel;
        Array.length sel
  in
  let wanted =
    match need with
    | None -> Fun.const true
    | Some js ->
        let w = Array.make (la + ra) false in
        List.iter (fun j -> w.(j) <- true) js;
        Array.get w
  in
  let cols =
    Array.init (la + ra) (fun j ->
        if not (wanted j) then placeholder
        else if j < la then Batch.gather_col ~len:passed lb.Batch.cols.(j) lp
        else Batch.gather_col ~len:passed rb.Batch.cols.(j - la) rp)
  in
  (Batch.of_cols out_schema passed cols, passed)

(* Candidate-pair test compiled from a residual whose every conjunct
   compares two non-null unboxed int columns — the shape the period
   encoding produces for interval overlap ([b1 < e2 AND b2 < e1]).  Such
   conjuncts are two-valued, so testing pairs inline during the probe is
   exactly [Veval.filter] on the materialized candidates, without ever
   gathering the rejected ones.  [None] for any other residual. *)
let fused_residual (la : int) (lb : Batch.t) (rb : Batch.t) (p : Expr.t) :
    (int -> int -> bool) option =
  let int_col j : (int -> int -> int) option =
    let side (c : Batch.col) (pick : int -> int -> int) =
      match (c.Batch.data, c.Batch.nulls) with
      | Batch.Ints a, None -> Some (fun lp rp -> a.(pick lp rp))
      | _ -> None
    in
    if j < la then side lb.Batch.cols.(j) (fun lp _ -> lp)
    else side rb.Batch.cols.(j - la) (fun _ rp -> rp)
  in
  let conj_test = function
    | Expr.Cmp (op, Expr.Col x, Expr.Col y) -> (
        match (int_col x, int_col y) with
        | Some gx, Some gy ->
            Some
              (fun lp rp ->
                Veval.cmp_result op (Int.compare (gx lp rp) (gy lp rp)))
        | _ -> None)
    | _ -> None
  in
  let rec all = function
    | [] -> Some []
    | e :: rest -> (
        match (conj_test e, all rest) with
        | Some t, Some ts -> Some (t :: ts)
        | _ -> None)
  in
  match all (Expr.conjuncts p) with
  | Some [ t ] -> Some t
  | Some ts -> Some (fun lp rp -> List.for_all (fun t -> t lp rp) ts)
  | None -> None

(* Counting sort of [n] rows by dense group id ([gid_of i] in
   [\[0, ngid)], or negative to leave row [i] out): group [g]'s rows are
   [bucket.(offsets.(g)) .. bucket.(offsets.(g+1) - 1)], as [row_of i], in
   input order.  The arrays come from [get]. *)
let buckets ~get ~ngid ~n ~gid_of ~row_of : int array * int array =
  let counts = get (max ngid 1) in
  Array.fill counts 0 (max ngid 1) 0;
  for i = 0 to n - 1 do
    let g = gid_of i in
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
    let g = gid_of i in
    if g >= 0 then begin
      bucket.(fill.(g)) <- row_of i;
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
  let la = Array.length lb.Batch.cols in
  let fused =
    match residual with
    | Some p -> fused_residual la lb rb p
    | None -> None
  in
  (* left key columns that provably hold no NULLs need no per-row check *)
  let nullable_lkeys =
    Array.of_list
      (List.filter
         (fun i ->
           let c = lb.Batch.cols.(i) in
           c.Batch.nulls <> None
           || match c.Batch.data with Batch.Boxed _ -> true | _ -> false)
         lkeys)
  in
  let nnullable = Array.length nullable_lkeys in
  let lkey_has_null pi =
    nnullable > 0
    &&
    let rec any j =
      j < nnullable
      && (Batch.is_null_at lb.Batch.cols.(nullable_lkeys.(j)) pi
         || any (j + 1))
    in
    any 0
  in
  let lpairs = Ibuf.create ~cap:(max nl 1) () in
  let rpairs = Ibuf.create ~cap:(max nl 1) () in
  let candidates = ref 0 in
  let emit pi rp =
    incr candidates;
    match fused with
    | Some test ->
        if test pi rp then begin
          Ibuf.push lpairs pi;
          Ibuf.push rpairs rp
        end
    | None ->
        Ibuf.push lpairs pi;
        Ibuf.push rpairs rp
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
    let key = Key.create ~hint:nl [| lkey_cols; rkey_cols |] in
    let lgids = get (max nl 1) in
    for li = 0 to nl - 1 do
      let pi = Batch.phys lb li in
      lgids.(li) <-
        (if lkey_has_null pi then -1 else Key.intern key ~src:0 ~row:pi)
    done;
    let rg = get (max nr 1) in
    for ri = 0 to nr - 1 do
      (* a NULL right key can only hash-match a NULL entry, and none were
         interned, so no explicit right-side NULL check is needed *)
      rg.(ri) <- Key.lookup key ~src:1 ~row:(Batch.phys rb ri)
    done;
    let offsets, bucket =
      buckets ~get ~ngid:(Key.count key) ~n:nr ~gid_of:(Array.get rg)
        ~row_of:(Batch.phys rb)
    in
    Key.release key;
    for li = 0 to nl - 1 do
      let g = lgids.(li) in
      if g >= 0 then begin
        let pi = Batch.phys lb li in
        for k = offsets.(g) to offsets.(g + 1) - 1 do
          emit pi bucket.(k)
        done
      end
    done
  end
  else begin
    (* Build on the right: bucket every right row per gid, probe in left
       order.  NULL right keys may sit in the table, but a non-NULL left
       probe never equals them. *)
    let key = Key.create ~hint:nr [| rkey_cols; lkey_cols |] in
    let rgids = get (max nr 1) in
    for ri = 0 to nr - 1 do
      rgids.(ri) <- Key.intern key ~src:0 ~row:(Batch.phys rb ri)
    done;
    let ngid = Key.count key in
    let offsets, bucket =
      buckets ~get ~ngid ~n:nr ~gid_of:(Array.get rgids) ~row_of:Fun.id
    in
    for li = 0 to nl - 1 do
      let pi = Batch.phys lb li in
      if not (lkey_has_null pi) then begin
        let g = Key.lookup key ~src:1 ~row:pi in
        if g >= 0 && g < ngid then
          for k = offsets.(g) to offsets.(g + 1) - 1 do
            emit pi (Batch.phys rb bucket.(k))
          done
      end
    done;
    Key.release key
  end;
  let npairs = Ibuf.length lpairs in
  let result, passed =
    pair_result ?need out_schema lb rb (Ibuf.data lpairs) (Ibuf.data rpairs)
      npairs
      (if Option.is_none fused then residual else None)
  in
  Ibuf.release lpairs;
  Ibuf.release rpairs;
  Trace.set_int sp "candidates" !candidates;
  Trace.set_bool sp "residual" (residual <> None);
  Trace.set_int sp "residual_passed"
    (if Option.is_none fused then passed else npairs);
  result


let nested_loop_join ?need (pred : Expr.t) (lb : Batch.t) (rb : Batch.t) :
    Batch.t =
  let out_schema = Schema.concat (Batch.schema lb) (Batch.schema rb) in
  let nl = Batch.length lb and nr = Batch.length rb in
  let npairs = nl * nr in
  let lphys = Scratch.get (max npairs 1) in
  let rphys = Scratch.get (max npairs 1) in
  let k = ref 0 in
  for li = 0 to nl - 1 do
    let pi = Batch.phys lb li in
    for ri = 0 to nr - 1 do
      lphys.(!k) <- pi;
      rphys.(!k) <- Batch.phys rb ri;
      incr k
    done
  done;
  let result =
    fst (pair_result ?need out_schema lb rb lphys rphys npairs (Some pred))
  in
  Scratch.release lphys;
  Scratch.release rphys;
  result

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

(* dynamic array of per-group accumulator rows *)
type accs = { mutable arr : Agg.acc array array; mutable groups : int }

let accs_create () = { arr = Array.make 16 [||]; groups = 0 }

let accs_add t naggs =
  if t.groups = Array.length t.arr then begin
    let a' = Array.make (2 * t.groups) [||] in
    Array.blit t.arr 0 a' 0 t.groups;
    t.arr <- a'
  end;
  t.arr.(t.groups) <- Array.make naggs Agg.empty;
  t.groups <- t.groups + 1

let aggregate (group : Algebra.proj list) (aggs : Algebra.agg_spec list)
    (b : Batch.t) : Batch.t =
  let child_schema = Batch.schema b in
  let out_schema = Neval.agg_out_schema child_schema group aggs in
  let n = Batch.length b in
  let gcols =
    Array.of_list (List.map (fun (p : Algebra.proj) -> Veval.eval b p.expr) group)
  in
  let agg_arr = Array.of_list aggs in
  let naggs = Array.length agg_arr in
  let inputs =
    Array.map
      (fun (spec : Algebra.agg_spec) ->
        Option.map (Veval.eval b) (Agg.input_expr spec.func))
      agg_arr
  in
  let key = Key.create ~hint:n [| gcols |] in
  let accs = accs_create () in
  let reps = Ibuf.create () in
  for i = 0 to n - 1 do
    (* [gcols] are dense: logical index = physical index *)
    let g = Key.intern key ~src:0 ~row:i in
    if g = accs.groups then begin
      accs_add accs naggs;
      Ibuf.push reps i
    end;
    let acc_row = accs.arr.(g) in
    for j = 0 to naggs - 1 do
      let v =
        match inputs.(j) with
        | None -> Value.Int 1
        | Some c -> Batch.value c i
      in
      acc_row.(j) <- Agg.step acc_row.(j) v
    done
  done;
  (* aggregation over no rows without GROUP BY: one all-empty group *)
  if group = [] && accs.groups = 0 then begin
    ignore (Key.intern key ~src:0 ~row:0);
    accs_add accs naggs;
    Ibuf.push reps 0
  end;
  Key.release key;
  let ng = accs.groups in
  let rep_arr = Ibuf.take reps in
  let key_cols = Array.map (fun c -> Batch.gather_col c rep_arr) gcols in
  let agg_cols =
    Array.mapi
      (fun j (spec : Algebra.agg_spec) ->
        Batch.col_of_values
          (Agg.output_ty child_schema spec.func)
          ng
          (fun g -> Agg.final spec.func accs.arr.(g).(j)))
      agg_arr
  in
  Batch.of_cols out_schema ng (Array.append key_cols agg_cols)

let distinct (b : Batch.t) : Batch.t =
  let n = Batch.length b in
  let key = Key.create ~hint:n [| b.Batch.cols |] in
  let keep = Ibuf.create ~cap:(max n 1) () in
  for li = 0 to n - 1 do
    let pi = Batch.phys b li in
    let before = Key.count key in
    if Key.intern key ~src:0 ~row:pi = before then Ibuf.push keep pi
  done;
  Key.release key;
  let sel = Ibuf.take keep in
  Batch.with_sel b sel

(* ---- temporal operators: sweeps over dense endpoint arrays ---- *)

(* per-group int buffers, indexed by dense group id *)
type gbufs = { mutable bufs : Ibuf.t array; mutable n : int }

let gbufs_create () = { bufs = Array.make 16 (Ibuf.create ~cap:1 ()); n = 0 }

let gbufs_add t =
  if t.n = Array.length t.bufs then begin
    let a' = Array.make (2 * t.n) t.bufs.(0) in
    Array.blit t.bufs 0 a' 0 t.n;
    t.bufs <- a'
  end;
  t.bufs.(t.n) <- Ibuf.create ();
  t.n <- t.n + 1

let sort_dedup (a : int array) : int array =
  Isort.sort a;
  let n = Array.length a in
  if n = 0 then a
  else begin
    let out = Array.make n a.(0) in
    let k = ref 1 in
    for i = 1 to n - 1 do
      if a.(i) <> a.(i - 1) then begin
        out.(!k) <- a.(i);
        incr k
      end
    done;
    Array.sub out 0 !k
  end

(** Multiset coalescing (Section 9): per distinct data prefix, sort the
    interval endpoints once and sweep, emitting maximal constant-count
    segments with the count as duplicate rows — same segments, same
    emission order as [Ops.coalesce]. *)
let coalesce sp (b : Batch.t) : Batch.t =
  let n = Batch.length b in
  let k = Array.length b.Batch.cols in
  let pb, pe = Batch.period_arrays b in
  let prefix = Array.sub b.Batch.cols 0 (k - 2) in
  let key = Key.create ~hint:n [| prefix |] in
  Scratch.scoped @@ fun get ->
  let gids = get (max n 1) in
  for li = 0 to n - 1 do
    gids.(li) <- Key.intern key ~src:0 ~row:(Batch.phys b li)
  done;
  let ng = Key.count key in
  (* per-group logical rows via counting sort (stable) *)
  let offsets, bucket =
    buckets ~get ~ngid:ng ~n ~gid_of:(Array.get gids) ~row_of:Fun.id
  in
  let out_rep = Ibuf.create () and out_b = Ibuf.create () and out_e = Ibuf.create () in
  let segments = ref 0 in
  for g = 0 to ng - 1 do
    let cnt = offsets.(g + 1) - offsets.(g) in
    let rep = Key.entry_row key g in
    if cnt = 1 then begin
      (* a singleton group coalesces to itself (nothing when the period is
         empty) — most groups in near-distinct data land here *)
      let pi = Batch.phys b bucket.(offsets.(g)) in
      if pb.(pi) < pe.(pi) then begin
        incr segments;
        Ibuf.push out_rep rep;
        Ibuf.push out_b pb.(pi);
        Ibuf.push out_e pe.(pi)
      end
    end
    else begin
    (* events: +1 at begins, -1 at ends, sorted by time *)
    let events = Array.make (2 * cnt) (0, 0) in
    for j = 0 to cnt - 1 do
      let pi = Batch.phys b bucket.(offsets.(g) + j) in
      events.(2 * j) <- (pb.(pi), 1);
      events.(2 * j + 1) <- (pe.(pi), -1)
    done;
    Array.sort (fun (t1, _) (t2, _) -> Int.compare t1 t2) events;
    let len = Array.length events in
    if len > 0 then begin
      let seg_start = ref (fst events.(0)) in
      let count = ref 0 in
      let i = ref 0 in
      while !i < len do
        let t = fst events.(!i) in
        let delta = ref 0 in
        while !i < len && fst events.(!i) = t do
          delta := !delta + snd events.(!i);
          incr i
        done;
        if !delta <> 0 then begin
          if t > !seg_start && !count > 0 then begin
            incr segments;
            for _ = 1 to !count do
              Ibuf.push out_rep rep;
              Ibuf.push out_b !seg_start;
              Ibuf.push out_e t
            done
          end;
          seg_start := t;
          count := !count + !delta
        end
      done
    end
    end
  done;
  Key.release key;
  Trace.set_int sp "groups" ng;
  Trace.set_int sp "endpoints" (2 * n);
  Trace.set_int sp "segments" !segments;
  let rep_arr = Ibuf.take out_rep in
  let cols =
    Array.append
      (Array.map (fun c -> Batch.gather_col c rep_arr) prefix)
      [|
        { Batch.data = Batch.Ints (Ibuf.take out_b); nulls = None };
        { Batch.data = Batch.Ints (Ibuf.take out_e); nulls = None };
      |]
  in
  Batch.of_cols (Batch.schema b) (Array.length rep_arr) cols

(* endpoints of [eps] strictly inside (b, e), by binary search *)
let inner_range (eps : int array) b e =
  (* first index with eps.(i) > b *)
  let lo = ref 0 and hi = ref (Array.length eps) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if eps.(mid) <= b then lo := mid + 1 else hi := mid
  done;
  let first = !lo in
  let lo = ref first and hi = ref (Array.length eps) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if eps.(mid) < e then lo := mid + 1 else hi := mid
  done;
  (first, !lo)

(** The split operator N_G (Def. 8.3): every left row is cut at the
    endpoints of all rows (of both inputs) agreeing with it on the group
    columns.  Fragments come out per left row, forward in time, like
    [Ops.split]. *)
let split sp (group_cols : int list) (lb : Batch.t) (rb : Batch.t) : Batch.t =
  let lpb, lpe = Batch.period_arrays lb in
  let rpb, rpe = Batch.period_arrays rb in
  let lg = Array.of_list (List.map (fun i -> lb.Batch.cols.(i)) group_cols) in
  let rg = Array.of_list (List.map (fun i -> rb.Batch.cols.(i)) group_cols) in
  let nl = Batch.length lb and nr = Batch.length rb in
  let key = Key.create ~hint:(nl + nr) [| lg; rg |] in
  let eps = gbufs_create () in
  let seen g =
    while g >= eps.n do
      gbufs_add eps
    done
  in
  let lgids = Array.make (max nl 1) 0 in
  for li = 0 to nl - 1 do
    let pi = Batch.phys lb li in
    let g = Key.intern key ~src:0 ~row:pi in
    lgids.(li) <- g;
    seen g;
    Ibuf.push eps.bufs.(g) lpb.(pi);
    Ibuf.push eps.bufs.(g) lpe.(pi)
  done;
  for ri = 0 to nr - 1 do
    let pi = Batch.phys rb ri in
    let g = Key.intern key ~src:1 ~row:pi in
    seen g;
    Ibuf.push eps.bufs.(g) rpb.(pi);
    Ibuf.push eps.bufs.(g) rpe.(pi)
  done;
  let ng = Key.count key in
  Key.release key;
  let sorted = Array.init ng (fun g -> sort_dedup (Ibuf.take eps.bufs.(g))) in
  let out_rep = Ibuf.create () and out_b = Ibuf.create () and out_e = Ibuf.create () in
  for li = 0 to nl - 1 do
    let pi = Batch.phys lb li in
    let g = lgids.(li) in
    let b = lpb.(pi) and e = lpe.(pi) in
    let pts = sorted.(g) in
    let first, stop = inner_range pts b e in
    let prev = ref b in
    for idx = first to stop - 1 do
      Ibuf.push out_rep pi;
      Ibuf.push out_b !prev;
      Ibuf.push out_e pts.(idx);
      prev := pts.(idx)
    done;
    Ibuf.push out_rep pi;
    Ibuf.push out_b !prev;
    Ibuf.push out_e e
  done;
  (match sp with
  | None -> ()
  | Some _ ->
      Trace.set_int sp "endpoint_keys" ng;
      Trace.set_int sp "endpoints"
        (Array.fold_left (fun acc a -> acc + Array.length a) 0 sorted);
      Trace.set_int sp "fragments" (Ibuf.length out_rep));
  let rep_arr = Ibuf.take out_rep in
  let k = Array.length lb.Batch.cols in
  let cols =
    Array.append
      (Array.map
         (fun c -> Batch.gather_col c rep_arr)
         (Array.sub lb.Batch.cols 0 (k - 2)))
      [|
        { Batch.data = Batch.Ints (Ibuf.take out_b); nulls = None };
        { Batch.data = Batch.Ints (Ibuf.take out_e); nulls = None };
      |]
  in
  Batch.of_cols (Batch.schema lb) (Array.length rep_arr) cols

(** Fused pre-aggregated split+aggregate (Section 9), reproducing
    [Ops.split_agg]'s deterministic entry order: pre-aggregates are kept
    in first-appearance order and stable-sorted by begin, so the
    per-segment combine folds in the same order (bit-identical floats). *)
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
  let key = Key.create ~hint:n [| gcols |] in
  (* pre-aggregate per (group id, b, e); entries keep first-appearance
     order globally and per group.  The entry index is open-addressed on
     the int triple directly — no tuple boxing, no polymorphic hash. *)
  let pre_cap = ref 16 in
  while !pre_cap < 2 * max n 1 do
    pre_cap := !pre_cap * 2
  done;
  let pre_slots = Scratch.get !pre_cap (* entry id + 1; 0 = empty *) in
  Array.fill pre_slots 0 !pre_cap 0;
  let pre_mask = !pre_cap - 1 in
  let e_g = Ibuf.create () in
  let e_b = Ibuf.create () and e_e = Ibuf.create () in
  let pre_slot g b e =
    let h =
      let h =
        (g * 0x9E3779B97F4A7C1) lxor (b * 0x85EBCA6B) lxor (e * 0xC2B2AE35)
      in
      (h lxor (h lsr 31)) land max_int
    in
    let rec go i =
      let s = pre_slots.(i) in
      if s = 0 then i
      else
        let id = s - 1 in
        if Ibuf.get e_g id = g && Ibuf.get e_b id = b && Ibuf.get e_e id = e
        then i
        else go ((i + 1) land pre_mask)
    in
    go (h land pre_mask)
  in
  let e_accs = ref (Array.make 16 [||]) in
  let n_entries = ref 0 in
  let group_entries = gbufs_create () in
  let group_eps = gbufs_create () in
  let seen g =
    while g >= group_entries.n do
      gbufs_add group_entries;
      gbufs_add group_eps
    done
  in
  (* unboxed per-(entry, agg) counters when every input is an int column
     (or [count( * )]'s constant 1): exactly [Agg.step]'s effect on int
     inputs, deferred into [acc] records once per entry instead of
     allocating per row *)
  let fast_in : (int array option * bool array option) array option =
    let ok =
      Array.for_all
        (function
          | None -> true
          | Some { Batch.data = Batch.Ints _; _ } -> true
          | Some _ -> false)
        inputs
    in
    if ok then
      Some
        (Array.map
           (function
             | None -> (None, None)
             | Some { Batch.data = Batch.Ints a; Batch.nulls } -> (Some a, nulls)
             | Some _ -> assert false)
           inputs)
    else None
  in
  (* counters start at zero; sum/min/max are written before they are
     read (at an entry's first non-null input) *)
  let st_len = if fast_in = None then 1 else max (n * naggs) 1 in
  let st_rows = Scratch.get st_len and st_nn = Scratch.get st_len in
  Array.fill st_rows 0 st_len 0;
  Array.fill st_nn 0 st_len 0;
  let st_sum = Scratch.get st_len in
  let st_min = Scratch.get st_len and st_max = Scratch.get st_len in
  for li = 0 to n - 1 do
    let pi = Batch.phys child li in
    let g = Key.intern key ~src:0 ~row:pi in
    seen g;
    let b = pb.(pi) and e = pe.(pi) in
    let slot = pre_slot g b e in
    let id =
      if pre_slots.(slot) <> 0 then pre_slots.(slot) - 1
      else begin
        let id = !n_entries in
        incr n_entries;
        pre_slots.(slot) <- id + 1;
        Ibuf.push e_g g;
        Ibuf.push e_b b;
        Ibuf.push e_e e;
        if id >= Array.length !e_accs then begin
          let a' = Array.make (2 * id) [||] in
          Array.blit !e_accs 0 a' 0 id;
          e_accs := a'
        end;
        !e_accs.(id) <- Array.make naggs Agg.empty;
        Ibuf.push group_entries.bufs.(g) id;
        id
      end
    in
    (match fast_in with
    | Some fi ->
        let base = id * naggs in
        for j = 0 to naggs - 1 do
          let data, mask = fi.(j) in
          st_rows.(base + j) <- st_rows.(base + j) + 1;
          let isnull = match mask with Some m -> m.(li) | None -> false in
          if not isnull then begin
            let v = match data with Some a -> a.(li) | None -> 1 in
            if st_nn.(base + j) = 0 then begin
              st_sum.(base + j) <- v;
              st_min.(base + j) <- v;
              st_max.(base + j) <- v
            end
            else begin
              st_sum.(base + j) <- st_sum.(base + j) + v;
              if v < st_min.(base + j) then st_min.(base + j) <- v;
              if v > st_max.(base + j) then st_max.(base + j) <- v
            end;
            st_nn.(base + j) <- st_nn.(base + j) + 1
          end
        done
    | None ->
        let acc_row = !e_accs.(id) in
        for j = 0 to naggs - 1 do
          let v =
            match inputs.(j) with
            | None -> Value.Int 1
            | Some c -> Batch.value c li
          in
          acc_row.(j) <- Agg.step acc_row.(j) v
        done);
    Ibuf.push group_eps.bufs.(g) b;
    Ibuf.push group_eps.bufs.(g) e
  done;
  (match fast_in with
  | Some _ ->
      for id = 0 to !n_entries - 1 do
        let base = id * naggs in
        let accs = !e_accs.(id) in
        for j = 0 to naggs - 1 do
          let nn = st_nn.(base + j) in
          accs.(j) <-
            (if nn = 0 then
               Agg.of_counters ~rows:st_rows.(base + j) ~nonnull:0
                 ~sum:Value.Null ()
             else
               Agg.of_counters ~rows:st_rows.(base + j) ~nonnull:nn
                 ~sum:(Value.Int st_sum.(base + j))
                 ~vmin:(Value.Int st_min.(base + j))
                 ~vmax:(Value.Int st_max.(base + j)) ())
        done
      done
  | None -> ());
  List.iter Scratch.release [ pre_slots; st_rows; st_nn; st_sum; st_min; st_max ];
  (* the empty group must exist (and span the time domain) for
     gap-covering aggregation; with [group = []] it is the one group *)
  (match gap with
  | Some (tmin, tmax) ->
      if Key.count key = 0 then begin
        ignore (Key.intern key ~src:0 ~row:0);
        seen 0
      end;
      Ibuf.push group_eps.bufs.(0) tmin;
      Ibuf.push group_eps.bufs.(0) tmax
  | None -> ());
  let ng = Key.count key in
  (* The per-segment fold over covering entries can become an
     O(entries log entries) enter/leave sweep when every spec's state is
     maintainable incrementally with exact results: row/nonnull counts
     always (exact ints), sums when every pre-aggregate summed to an
     [Int] (int addition is associative; float addition is
     order-sensitive and must keep the fold), and min/max when every
     pre-aggregate's extremum is an [Int] (equal ints are
     indistinguishable, so the fold's tie-breaking cannot show; mixed
     Int/Float ties or -0.0 vs 0.0 could). *)
  let invertible =
    let ok = ref true in
    for id = 0 to !n_entries - 1 do
      let accs = !e_accs.(id) in
      for j = 0 to naggs - 1 do
        let exact v =
          match v with Value.Int _ | Value.Null -> () | _ -> ok := false
        in
        match agg_arr.(j).Algebra.func with
        | Agg.Count_star | Agg.Count _ -> ()
        | Agg.Sum _ | Agg.Avg _ -> exact (Agg.sum accs.(j))
        | Agg.Min _ -> exact (Agg.vmin accs.(j))
        | Agg.Max _ -> exact (Agg.vmax accs.(j))
      done
    done;
    !ok
  in
  (* lazy-expiry heaps for the min/max specs: every live entry's extremum
     is in its spec's heap, so once expired tops are popped the top is the
     covering minimum (maxima are negated into the same min-heaps) *)
  let heaps =
    Array.map
      (fun (spec : Algebra.agg_spec) ->
        if invertible then
          match spec.Algebra.func with
          | Agg.Min _ | Agg.Max _ -> Some (Iheap.create ())
          | _ -> None
        else None)
      agg_arr
  in
  let out_rep = Ibuf.create () and out_b = Ibuf.create () and out_e = Ibuf.create () in
  let finals_rev : Value.t list ref array = Array.map (fun _ -> ref []) agg_arr in
  let endpoints = ref 0 in
  for g = 0 to ng - 1 do
    let rep = Key.entry_row key g in
    let segs = sort_dedup (Ibuf.take group_eps.bufs.(g)) in
    endpoints := !endpoints + Array.length segs;
    (* entries of this group in begin order, stable on first appearance *)
    let ids = Ibuf.take group_entries.bufs.(g) in
    let nid = Array.length ids in
    let bs = Array.make (max nid 1) 0 and es = Array.make (max nid 1) 0 in
    for i = 0 to nid - 1 do
      bs.(i) <- Ibuf.get e_b ids.(i);
      es.(i) <- Ibuf.get e_e ids.(i)
    done;
    let ord = Isort.perm_prefix bs nid in
    if invertible then begin
      (* running counters equal the fold over covering entries: integer
         adds are associative, so leave-time subtraction is exact.  Live
         entries (non-empty periods) in begin order, as parallel arrays *)
      let lb_ = Array.make (max nid 1) 0
      and le_ = Array.make (max nid 1) 0
      and lacc = Array.make (max nid 1) [||] in
      let nlive = ref 0 in
      Array.iter
        (fun i ->
          if es.(i) > bs.(i) then begin
            lb_.(!nlive) <- bs.(i);
            le_.(!nlive) <- es.(i);
            lacc.(!nlive) <- !e_accs.(ids.(i));
            incr nlive
          end)
        ord;
      let ne = !nlive in
      let by_end = Isort.perm_prefix le_ ne in
      Array.iter (function Some h -> Iheap.clear h | None -> ()) heaps;
      let rows_a = Array.make naggs 0 and nn_a = Array.make naggs 0 in
      let sum_a = Array.make naggs 0 and nsum_a = Array.make naggs 0 in
      let apply sign (accs : Agg.acc array) =
        for j = 0 to naggs - 1 do
          let a = accs.(j) in
          rows_a.(j) <- rows_a.(j) + (sign * Agg.rows a);
          nn_a.(j) <- nn_a.(j) + (sign * Agg.nonnull a);
          match Agg.sum a with
          | Value.Int s ->
              sum_a.(j) <- sum_a.(j) + (sign * s);
              nsum_a.(j) <- nsum_a.(j) + sign
          | _ -> ()
        done
      in
      (* min/max state never leaves a heap early; expiry happens at the
         segment boundary pops below *)
      let push_extrema e (accs : Agg.acc array) =
        for j = 0 to naggs - 1 do
          match heaps.(j) with
          | None -> ()
          | Some h -> (
              match agg_arr.(j).Algebra.func with
              | Agg.Min _ -> (
                  match Agg.vmin accs.(j) with
                  | Value.Int v -> Iheap.push h v e
                  | _ -> ())
              | Agg.Max _ -> (
                  match Agg.vmax accs.(j) with
                  | Value.Int v -> Iheap.push h (-v) e
                  | _ -> ())
              | _ -> ())
        done
      in
      let enter = ref 0 and leave = ref 0 and n_active = ref 0 in
      for s = 0 to Array.length segs - 2 do
        let sb = segs.(s) and se = segs.(s + 1) in
        while !leave < ne && le_.(by_end.(!leave)) <= sb do
          apply (-1) lacc.(by_end.(!leave));
          decr n_active;
          incr leave
        done;
        while !enter < ne && lb_.(!enter) <= sb do
          apply 1 lacc.(!enter);
          push_extrema le_.(!enter) lacc.(!enter);
          incr n_active;
          incr enter
        done;
        Array.iter
          (function
            | Some h ->
                while Iheap.size h > 0 && Iheap.top_expiry h <= sb do
                  Iheap.pop h
                done
            | None -> ())
          heaps;
        if !n_active = 0 && gap = None then ()
        else begin
          Array.iteri
            (fun j (spec : Algebra.agg_spec) ->
              let sum =
                if nsum_a.(j) = 0 then Value.Null else Value.Int sum_a.(j)
              in
              let extremum negate =
                match heaps.(j) with
                | Some h when Iheap.size h > 0 ->
                    Value.Int (if negate then -(Iheap.top h) else Iheap.top h)
                | _ -> Value.Null
              in
              let vmin = extremum false and vmax = extremum true in
              let acc =
                Agg.of_counters ~rows:rows_a.(j) ~nonnull:nn_a.(j) ~sum ~vmin
                  ~vmax ()
              in
              finals_rev.(j) := Agg.final spec.func acc :: !(finals_rev.(j)))
            agg_arr;
          Ibuf.push out_rep rep;
          Ibuf.push out_b sb;
          Ibuf.push out_e se
        end
      done
    end
    else begin
      let entries =
        Array.map (fun i -> (bs.(i), es.(i), !e_accs.(ids.(i)))) ord
      in
      let remaining = ref (Array.to_list entries) in
      let active = ref [] in
      for s = 0 to Array.length segs - 2 do
        let sb = segs.(s) and se = segs.(s + 1) in
        let rec pull () =
          match !remaining with
          | (b, e, accs) :: rest when b <= sb ->
              remaining := rest;
              if e > sb then active := (e, accs) :: !active;
              pull ()
          | _ -> ()
        in
        pull ();
        active := List.filter (fun (e, _) -> e > sb) !active;
        let covering = List.map snd !active in
        if covering = [] && gap = None then ()
        else begin
          Array.iteri
            (fun j (spec : Algebra.agg_spec) ->
              let acc =
                List.fold_left
                  (fun acc accs -> Agg.combine acc accs.(j))
                  Agg.empty covering
              in
              finals_rev.(j) := Agg.final spec.func acc :: !(finals_rev.(j)))
            agg_arr;
          Ibuf.push out_rep rep;
          Ibuf.push out_b sb;
          Ibuf.push out_e se
        end
      done
    end
  done;
  Key.release key;
  (match sp with
  | None -> ()
  | Some _ ->
      Trace.set_int sp "groups" ng;
      Trace.set_int sp "pre_aggregates" !n_entries;
      Trace.set_int sp "endpoints" !endpoints);
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
  let rep_arr = Ibuf.take out_rep in
  let nout = Array.length rep_arr in
  let finals_cols =
    Array.mapi
      (fun j (spec : Algebra.agg_spec) ->
        let vals = Array.of_list (List.rev !(finals_rev.(j))) in
        Batch.col_of_values
          (Agg.output_ty child_schema spec.func)
          nout
          (fun i -> vals.(i)))
      agg_arr
  in
  let cols =
    Array.concat
      [
        Array.map (fun c -> Batch.gather_col c rep_arr) gcols;
        finals_cols;
        [|
          { Batch.data = Batch.Ints (Ibuf.take out_b); nulls = None };
          { Batch.data = Batch.Ints (Ibuf.take out_e); nulls = None };
        |];
      ]
  in
  Batch.of_cols out_schema nout cols

(* ---- the interpreter loop ---- *)

(* [need] (default: all) lists the output columns of [q] its consumer
   reads; a join gathers only those.  Project and Agg pass down the
   columns they read, Select adds its predicate's columns to its own
   [need], and every other operator reads all of its input. *)
let rec eval_batch ?need (ctx : ctx) (q : Algebra.t) : Batch.t =
  Trace.with_span ctx.obs (Exec.op_label q) @@ fun sp ->
  Trace.set_str sp "engine" "vec";
  let result =
    match q with
    | Algebra.Rel n ->
        let b = Batch.of_table (Database.find ctx.db n) in
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
              if ctx.use_index then index_select ctx.db sp p n else None
            with
            | Some res -> res
            | None ->
                Trace.set_str sp "access" "scan";
                scan ())
        | _ -> scan ())
    | Project (projs, q) ->
        let need =
          List.concat_map (fun (p : Algebra.proj) -> Expr.cols p.expr) projs
        in
        let b = eval_batch ~need ctx q in
        rows_in sp [ b ];
        project projs b
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
    | Diff (l, r) ->
        let lb = eval_batch ctx l in
        let rb = eval_batch ctx r in
        rows_in sp [ lb; rb ];
        except_all lb rb
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
        aggregate group aggs b
    | Distinct q ->
        let b = eval_batch ctx q in
        rows_in sp [ b ];
        distinct b
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
  in
  (match sp with
  | None -> ()
  | Some _ -> Trace.set_int sp "rows_out" (Batch.length result));
  result

(** Evaluate a plan on the vectorized engine.  [use_index] (default off)
    answers index-answerable period-table selections through the temporal
    interval index; output is byte-identical either way. *)
let eval ?(obs = Trace.disabled) ?(use_index = false) (db : Database.t)
    (q : Algebra.t) : Table.t =
  Batch.to_table (eval_batch { obs; db; use_index } q)

(* The vectorized engine (Tkr_vec): batch representation roundtrips,
   selection-vector edge cases, per-operator differential tests against the
   interpreted row oracle, and qcheck properties asserting byte-identity of
   full random plans, plus the middleware Row/Vec end-to-end surface. *)

open Fixtures
module Value = Tkr_relation.Value
module Schema = Tkr_relation.Schema
module Tuple = Tkr_relation.Tuple
module Expr = Tkr_relation.Expr
module Algebra = Tkr_relation.Algebra
module Agg = Tkr_relation.Agg
module Table = Tkr_engine.Table
module Database = Tkr_engine.Database
module Exec = Tkr_engine.Exec
module Batch = Tkr_engine.Batch
module Veval = Tkr_vec.Veval
module Vexec = Tkr_vec.Vexec
module M = Tkr_middleware.Middleware
module Rewriter = Tkr_sqlenc.Rewriter
module PE = Tkr_sqlenc.Period_enc.Make (D24)

let check = Alcotest.(check bool)

(* byte-identity: same rows in the same order, and the same rendered
   text (the surface the CI differential job diffs) *)
let byte_identical a b =
  let ra = Table.rows a and rb = Table.rows b in
  Array.length ra = Array.length rb
  && Array.for_all2 Tuple.equal ra rb
  && String.equal (Table.to_text a) (Table.to_text b)

(* the engine's encoded test database: Figure 1 under the period encoding *)
let fig1_db () =
  let db = Database.create ~tmin:0 ~tmax:24 () in
  Database.add_period_table db "works" (PE.to_table works_period);
  Database.add_period_table db "assign" (PE.to_table assign_period);
  db

let differential db q = byte_identical (Exec.eval db q) (Vexec.eval db q)

(* ---- batch representation ---- *)

let mixed_schema =
  Schema.make
    [
      Schema.attr "i" Value.TInt;
      Schema.attr "f" Value.TFloat;
      Schema.attr "s" Value.TStr;
      Schema.attr "b" Value.TBool;
    ]

let mixed_rows =
  [|
    Tuple.make [ Value.Int 1; Value.Float 1.5; Value.Str "x"; Value.Bool true ];
    Tuple.make [ Value.Null; Value.Null; Value.Null; Value.Null ];
    Tuple.make [ Value.Int 3; Value.Float nan; Value.Str ""; Value.Bool false ];
  |]

let test_roundtrip () =
  let tbl = Table.of_array mixed_schema mixed_rows in
  check "columnar/of_batch roundtrips every value (incl. NULLs, NaN)" true
    (byte_identical tbl (Table.of_batch (Table.columnar tbl)));
  (* a column that mixes types falls back to Boxed and still roundtrips *)
  let s = Schema.make [ Schema.attr "v" Value.TInt ] in
  let rows = [| Tuple.make [ Value.Int 1 ]; Tuple.make [ Value.Str "oops" ] |] in
  let tbl = Table.of_array s rows in
  check "type-mismatched column roundtrips via the boxed fallback" true
    (byte_identical tbl (Table.of_batch (Table.columnar tbl)));
  (* the columnar image is kept on the table value *)
  let tbl = Table.of_array mixed_schema mixed_rows in
  check "columnar is built once per table value" true
    (Table.columnar tbl == Table.columnar tbl)

(* [Batch.gather_col] = the [Array.init] reference over every column
   variant, with and without a validity mask, for the whole index array
   and for a [~len] prefix of a longer scratch array; a [~len] beyond the
   index array is rejected *)
let test_typed_gathers () =
  let n = 7 in
  let mask = Some (Array.init n (fun i -> i mod 3 = 1)) in
  let variants =
    [
      ("ints", Batch.Ints (Array.init n (fun i -> (i * 37) - 100)));
      ("floats", Batch.Floats [| 1.5; -0.0; nan; 0.0; infinity; -2.25; 1e300 |]);
      ("bools", Batch.Bools (Array.init n (fun i -> i land 1 = 0)));
      ("strs", Batch.Strs (Array.init n (fun i -> String.make i 'x')));
      ( "boxed",
        Batch.Boxed
          (Array.init n (fun i ->
               if i mod 2 = 0 then Value.Int i else Value.Str (string_of_int i))) );
    ]
  in
  (* a scratch buffer: 5 live indices (repeats, reversed) then junk *)
  let idx = [| 6; 0; 3; 3; 1; 99; -4; 12 |] in
  let reference (c : Batch.col) len =
    Array.init len (fun k -> Batch.value c idx.(k))
  in
  let values (c : Batch.col) len = Array.init len (Batch.value c) in
  let same a b =
    Array.length a = Array.length b
    && Array.for_all2 (fun x y -> Value.compare x y = 0) a b
  in
  List.iter
    (fun (name, data) ->
      List.iter
        (fun (mname, nulls) ->
          let c = { Batch.data; nulls } in
          let g = Batch.gather_col ~len:5 c idx in
          let label what = Printf.sprintf "gather_col %s %s: %s" name mname what in
          check (label "~len prefix = Array.init") true
            (same (values g 5) (reference c 5));
          check (label "keeps the variant and the mask") true
            (Batch.(match (g.data, data) with
              | Ints _, Ints _ | Floats _, Floats _ | Bools _, Bools _
              | Strs _, Strs _ | Boxed _, Boxed _ -> true
              | _ -> false)
            && Option.is_some g.nulls = Option.is_some nulls);
          let whole = [| 2; 5; 0 |] in
          check (label "whole index array") true
            (same
               (values (Batch.gather_col c whole) 3)
               (Array.map (Batch.value c) whole));
          check (label "~len beyond the index array is rejected") true
            (match Batch.gather_col ~len:4 c whole with
            | _ -> false
            | exception Invalid_argument _ -> true))
        [ ("no mask", None); ("masked", mask) ])
    variants

let test_selection_edges () =
  let tbl = Table.of_array mixed_schema mixed_rows in
  let b = Table.columnar tbl in
  let empty = Batch.with_sel b [||] in
  check "empty selection has length 0" true (Batch.length empty = 0);
  check "empty selection renders an empty table" true
    (Table.cardinality (Table.of_batch empty) = 0);
  let full = Batch.with_sel b [| 0; 1; 2 |] in
  check "full selection reproduces the table" true
    (byte_identical tbl (Table.of_batch full));
  let single = Batch.with_sel b [| 1 |] in
  check "single-row selection picks that physical row" true
    (Tuple.equal (Table.rows (Table.of_batch single)).(0) mixed_rows.(1));
  let reordered = Batch.with_sel b [| 2; 0 |] in
  check "selection order is logical order" true
    (let rows = Table.rows (Table.of_batch reordered) in
     Tuple.equal rows.(0) mixed_rows.(2) && Tuple.equal rows.(1) mixed_rows.(0));
  check "compact preserves the logical rows" true
    (byte_identical
       (Table.of_batch reordered)
       (Table.of_batch (Batch.compact reordered)));
  test_typed_gathers ()

let test_empty_batch () =
  let tbl = Table.of_array mixed_schema [||] in
  let b = Table.columnar tbl in
  check "empty table gives a zero-length batch" true (Batch.length b = 0);
  check "empty batch roundtrips" true (byte_identical tbl (Table.of_batch b));
  check "filter over an empty batch selects nothing" true
    (Veval.filter b (Expr.Cmp (Expr.Eq, Expr.Col 0, Expr.Const (Value.Int 1)))
    = [||])

(* ---- per-operator differentials on encoded Figure 1 plans ---- *)

let works = Algebra.Rel "works"
let assign = Algebra.Rel "assign"
let col i = Expr.Col i
let str_const s = Expr.Const (Value.Str s)

let test_op_select () =
  let db = fig1_db () in
  check "select: vec = row" true
    (differential db
       (Algebra.Select (Expr.Cmp (Expr.Eq, col 1, str_const "SP"), works)));
  (* conjunct fusion: two conjuncts, second only sees survivors *)
  check "select with fused conjuncts: vec = row" true
    (differential db
       (Algebra.Select
          ( Expr.And
              ( Expr.Cmp (Expr.Eq, col 1, str_const "SP"),
                Expr.Cmp (Expr.Lt, col 2, Expr.Const (Value.Int 11)) ),
            works )))

let test_op_project () =
  let db = fig1_db () in
  check "project (expressions over periods): vec = row" true
    (differential db
       (Algebra.Project
          ( [
              Algebra.proj (col 0) "name";
              Algebra.proj
                (Expr.Binop (Expr.Sub, col 3, col 2))
                "len";
            ],
            works )));
  (* a consumer that reads no projected column: the plain references
     are not gathered, a computing projection still runs, and its
     error shows in both engines *)
  let counted projs =
    Algebra.Agg
      ( [],
        [ { Algebra.func = Agg.Count_star; agg_name = "n" } ],
        Algebra.Project (projs, works) )
  in
  check "count over dropped column references: vec = row" true
    (differential db
       (counted [ Algebra.proj (col 0) "name"; Algebra.proj (col 1) "skill" ]));
  let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
  let bad =
    counted
      [ Algebra.proj (col 0) "name";
        Algebra.proj (Expr.Binop (Expr.Add, col 1, Expr.Const (Value.Int 1))) "oops" ]
  in
  check "an unread computing projection fails in the row engine" true
    (raises (fun () -> Exec.eval db bad));
  check "... and in the vec engine" true (raises (fun () -> Vexec.eval db bad))

(* The flat overlap test: a residual of int-column comparisons compiles
   to [Vexec.fused_cmp]s, and [Vexec.filter_fused] on a block of pairs
   keeps exactly the pairs [Veval.filter] keeps on the materialized
   pairs, in order, for all six operators with
   operands from either input in both positions, bare or plus or minus an
   int constant (and a conjunction of two).  A nullable operand does not
   compile. *)
let test_fused_residual () =
  let ints a = { Batch.data = Batch.Ints a; nulls = None } in
  let s2 =
    Schema.make [ Schema.attr "p" Value.TInt; Schema.attr "q" Value.TInt ]
  in
  let lb =
    Batch.of_cols s2 5 [| ints [| 0; 3; 3; 7; -2 |]; ints [| 4; 4; 1; 9; 0 |] |]
  in
  let rb = Batch.of_cols s2 4 [| ints [| 3; 8; -2; 4 |]; ints [| 0; 3; 7; 7 |] |] in
  let out_schema = Schema.concat s2 s2 in
  (* every (left, right) pair, left-major *)
  let np = 5 * 4 in
  let lp = Array.init np (fun k -> k / 4) and rp = Array.init np (fun k -> k mod 4) in
  let pview =
    Batch.of_cols out_schema np
      (Array.append
         (Array.map (fun c -> Batch.gather_col c lp) lb.Batch.cols)
         (Array.map (fun c -> Batch.gather_col c rp) rb.Batch.cols))
  in
  let agree name p =
    match Vexec.fused_residual 2 lb rb p with
    | None -> Alcotest.failf "%s: did not compile" name
    | Some t ->
        let bl = Array.copy lp and br = Array.copy rp in
        let kept = Vexec.filter_fused t bl br np in
        let expected = Veval.filter pview p in
        check (name ^ ": flat test = Veval.filter") true
          (Array.sub bl 0 kept = Array.map (fun k -> lp.(k)) expected
          && Array.sub br 0 kept = Array.map (fun k -> rp.(k)) expected)
  in
  let ops =
    [ ("=", Expr.Eq); ("<>", Expr.Ne); ("<", Expr.Lt); ("<=", Expr.Le);
      (">", Expr.Gt); (">=", Expr.Ge) ]
  in
  (* left columns 0, 1; right columns 2, 3 *)
  let positions = [ ("l.l", 0, 1); ("l.r", 0, 2); ("r.l", 3, 1); ("r.r", 2, 3) ] in
  List.iter
    (fun (oname, op) ->
      List.iter
        (fun (pname, x, y) ->
          agree (Printf.sprintf "%s %s" pname oname) (Expr.Cmp (op, col x, col y)))
        positions)
    ops;
  agree "overlap b1 < e2 AND b2 < e1"
    (Expr.And (Expr.Cmp (Expr.Lt, col 0, col 3), Expr.Cmp (Expr.Lt, col 2, col 1)));
  (* an operand plus or minus an int constant, on either side, wrapping
     at the ends of the int range as [Veval]'s addition does *)
  let plus j d = Expr.Binop (Expr.Add, col j, Expr.Const (Value.Int d)) in
  let minus j d = Expr.Binop (Expr.Sub, col j, Expr.Const (Value.Int d)) in
  let plus_left j d = Expr.Binop (Expr.Add, Expr.Const (Value.Int d), col j) in
  List.iter
    (fun (oname, op) ->
      List.iter
        (fun (pname, x, y) ->
          agree (Printf.sprintf "%s %s" pname oname) (Expr.Cmp (op, x, y)))
        [
          ("l.l+3", col 0, plus 1 3);
          ("l.r-2", col 0, minus 2 2);
          ("(3+r).l", plus_left 3 3, col 1);
          ("(r-4).(l+1)", minus 2 4, plus 1 1);
          ("(l+max_int).r", plus 0 max_int, col 2);
          ("r.(l-min_int)", col 3, minus 1 min_int);
        ])
    ops;
  agree "band a.p > b.p + 3 AND a.q - 1 <= b.q"
    (Expr.And (Expr.Cmp (Expr.Gt, col 0, plus 2 3), Expr.Cmp (Expr.Le, minus 1 1, col 3)));
  let nullable =
    { Batch.data = Batch.Ints [| 1; 2; 3; 4 |]; nulls = Some [| false; true; false; false |] }
  in
  let rb' = Batch.of_cols s2 4 [| nullable; ints [| 0; 3; 7; 7 |] |] in
  check "a nullable operand does not fuse" true
    (Vexec.fused_residual 2 lb rb' (Expr.Cmp (Expr.Lt, col 0, col 2)) = None)

(* A nested loop over more candidates than one residual block holds
   (300 x 300 > 65,536), with a three-valued residual over NULL-bearing
   columns that cannot fuse: the blocks reassemble the oracle's rows in
   the oracle's order *)
let test_blocked_nested_loop () =
  let s =
    Schema.make [ Schema.attr "k" Value.TInt; Schema.attr "v" Value.TInt ]
  in
  let rows =
    List.init 300 (fun i ->
        Tuple.make
          [ (if i mod 7 = 0 then Value.Null else Value.Int (i mod 13));
            (if i mod 11 = 0 then Value.Null else Value.Int ((i * 7) mod 50)) ])
  in
  let db = Database.create ~tmin:0 ~tmax:24 () in
  Database.add_table db "t" (Table.make s rows);
  let t = Algebra.Rel "t" in
  check "blocked nested loop, three-valued residual: vec = row" true
    (differential db
       (Algebra.Join
          ( Expr.Or
              ( Expr.Cmp (Expr.Lt, col 1, col 3),
                Expr.Cmp (Expr.Eq, col 0, Expr.Const (Value.Int 5)) ),
            t, t )));
  check "blocked nested loop, count only: vec = row" true
    (differential db
       (Algebra.Agg
          ( [],
            [ { Algebra.func = Agg.Count_star; agg_name = "n" } ],
            Algebra.Join (Expr.Cmp (Expr.Le, col 1, col 3), t, t) )))

let test_op_join () =
  let db = fig1_db () in
  (* equi-join on skill with interval-overlap residual: the hash path *)
  let overlap =
    Expr.And
      ( Expr.Cmp (Expr.Eq, col 1, Expr.Col 5),
        Expr.And
          ( Expr.Cmp (Expr.Lt, col 2, Expr.Col 7),
            Expr.Cmp (Expr.Lt, Expr.Col 6, col 3) ) )
  in
  check "hash join with residual: vec = row" true
    (differential db (Algebra.Join (overlap, works, assign)));
  (* no equi key: the nested-loop path *)
  let lt = Expr.Cmp (Expr.Lt, col 2, Expr.Col 6) in
  check "nested-loop join: vec = row" true
    (differential db (Algebra.Join (lt, works, assign)));
  test_fused_residual ();
  test_blocked_nested_loop ()

let test_op_union_diff () =
  let db = fig1_db () in
  check "union all: vec = row" true
    (differential db (Algebra.Union (works, works)));
  let sp = Algebra.Select (Expr.Cmp (Expr.Eq, col 1, str_const "SP"), works) in
  check "except all: vec = row" true
    (differential db (Algebra.Diff (works, sp)));
  check "except all (empty right): vec = row" true
    (differential db
       (Algebra.Diff (works, Algebra.ConstRel (Tkr_sqlenc.Period_enc.encoded_schema works_schema, []))))

let test_op_agg_distinct () =
  let db = fig1_db () in
  check "group-by aggregate: vec = row" true
    (differential db
       (Algebra.Agg
          ( [ Algebra.proj (col 1) "skill" ],
            [
              { Algebra.func = Agg.Count_star; agg_name = "cnt" };
              { Algebra.func = Agg.Min (col 2); agg_name = "mn" };
            ],
            works )));
  check "global aggregate over empty input: vec = row" true
    (differential db
       (Algebra.Agg
          ( [],
            [ { Algebra.func = Agg.Count_star; agg_name = "cnt" } ],
            Algebra.ConstRel (Tkr_sqlenc.Period_enc.encoded_schema works_schema, []) )));
  check "distinct: vec = row" true
    (differential db
       (Algebra.Distinct (Algebra.Project ([ Algebra.proj (col 1) "skill" ], works))))

(* byte-identity down to the bits of every float cell: [Tuple.equal]
   ties [-0.0] with [0.0] and NaN with NaN *)
let bit_identical a b =
  byte_identical a b
  && Array.for_all2
       (fun x y ->
         List.for_all2
           (fun u v ->
             match (u, v) with
             | Value.Float f, Value.Float g ->
                 Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float g)
             | u, v -> Value.compare u v = 0)
           (Tuple.to_list x) (Tuple.to_list y))
       (Table.rows a) (Table.rows b)

(* Plain γ's typed slots and boxed fallback against the row oracle:
   NULL-heavy int and float columns, all-NULL groups, NaN and -0.0, an
   int SUM that wraps, text MIN/MAX and a mixed (boxed) column, over
   rows, over no rows, with and without GROUP BY. *)
let test_agg_edges () =
  let s =
    Schema.make
      [
        Schema.attr "g" Value.TStr;
        Schema.attr "i" Value.TInt;
        Schema.attr "f" Value.TFloat;
        Schema.attr "t" Value.TStr;
        Schema.attr "m" Value.TInt;
      ]
  in
  let row g i f t m = Tuple.make [ Value.Str g; i; f; t; m ] in
  let i x = Value.Int x and f x = Value.Float x and t x = Value.Str x in
  let null = Value.Null in
  let rows =
    [
      row "a" (i 3) (f 1.5) (t "pear") (i 1);
      row "nulls" null null null null;
      row "a" null (f (-0.0)) null (f 2.5);
      row "wrap" (i max_int) (f 0.1) (t "b") (i 7);
      row "a" (i (-7)) null (t "apple") null;
      row "nan" (i 1) (f Float.nan) (t "") (f Float.nan);
      row "wrap" (i 2) (f 0.2) (t "a") (f 7.0);
      row "nulls" null null null null;
      row "nan" (i 1) (f (-1.0)) (t "z") (i 0);
      row "zero" (i 0) (f (-0.0)) (t "z") (i 0);
      row "zero" (i 0) (f 0.0) (t "z") (f (-0.0));
      row "nan" null (f Float.nan) null null;
      row "wrap" (i max_int) (f 0.3) null (i 1);
      row "negzero" null (f (-0.0)) null null;
    ]
  in
  let db = Database.create ~tmin:0 ~tmax:24 () in
  Database.add_table db "r" (Table.make s rows);
  Database.add_table db "empty" (Table.make s []);
  check "the mixed column is boxed" true
    (match (Table.columnar (Database.find db "r")).Batch.cols.(4).Batch.data with
    | Batch.Boxed _ -> true
    | _ -> false);
  let agg func agg_name = { Algebra.func; agg_name } in
  let over c =
    [
      agg (Agg.Count (col c)) "n"; agg (Agg.Sum (col c)) "s";
      agg (Agg.Avg (col c)) "a"; agg (Agg.Min (col c)) "lo";
      agg (Agg.Max (col c)) "hi";
    ]
  in
  let aggs =
    (agg Agg.Count_star "rows" :: over 1) @ over 2
    @ [ agg (Agg.Count (col 3)) "tn"; agg (Agg.Min (col 3)) "tlo"; agg (Agg.Max (col 3)) "thi" ]
    @ over 4
  in
  List.iter
    (fun (name, group, aggs) ->
      List.iter
        (fun tbl ->
          let q = Algebra.Agg (group, aggs, Algebra.Rel tbl) in
          let row = Exec.eval db q and vec = Vexec.eval db q in
          if not (bit_identical row vec) then
            Alcotest.failf "%s over %s: vec differs from the row oracle:@.%s@.vs@.%s"
              name tbl (Table.to_text row) (Table.to_text vec))
        [ "r"; "empty" ])
    [
      ("grouped", [ Algebra.proj (col 0) "g" ], aggs);
      ("global", [], aggs);
      (* each spec alone: a typed spec next to no boxed one *)
      ("global sum(i)", [], [ agg (Agg.Sum (col 1)) "s" ]);
      ("grouped min(f)", [ Algebra.proj (col 0) "g" ], [ agg (Agg.Min (col 2)) "lo" ]);
      ("grouped max(f)", [ Algebra.proj (col 0) "g" ], [ agg (Agg.Max (col 2)) "hi" ]);
      ("grouped avg(m)", [ Algebra.proj (col 0) "g" ], [ agg (Agg.Avg (col 4)) "a" ]);
      ("group only", [ Algebra.proj (col 0) "g" ], []);
    ];
  (* the wrapping sum *)
  let q =
    Algebra.Agg
      ( [ Algebra.proj (col 0) "g" ],
        [ agg (Agg.Sum (col 1)) "s" ],
        Algebra.Select (Expr.Cmp (Expr.Eq, col 0, str_const "wrap"), Algebra.Rel "r") )
  in
  check "int SUM wraps like the row oracle" true
    (Table.rows (Vexec.eval db q)
    = [| Tuple.make [ Value.Str "wrap"; Value.Int (max_int + 2 + max_int) ] |])

let test_op_temporal () =
  let db = fig1_db () in
  check "coalesce: vec = row" true
    (differential db (Algebra.Coalesce works));
  check "split (shared child): vec = row" true
    (let w = works in
     differential db (Algebra.Split ([ 1 ], w, w)));
  check "split (two children): vec = row" true
    (differential db (Algebra.Split ([ 1 ], works, assign)));
  check "split_agg grouped: vec = row" true
    (differential db
       (Algebra.Split_agg
          {
            sa_group = [ 1 ];
            sa_aggs = [ { Algebra.func = Agg.Count_star; agg_name = "cnt" } ];
            sa_gap = None;
            sa_child = works;
          }));
  (* REWR's EXCEPT ALL: the mirrored splits evaluate each side once and
     cut against one shared endpoint table *)
  let mirrored =
    Algebra.Diff
      (Algebra.Split ([ 1 ], works, assign), Algebra.Split ([ 1 ], assign, works))
  in
  check "mirrored splits: vec = row" true (differential db mirrored);
  let obs = Tkr_obs.Trace.create () in
  ignore (Vexec.eval ~obs db mirrored);
  let scans = ref 0 and shared = ref 0 in
  List.iter
    (Tkr_obs.Trace.iter (fun sp ->
         if Tkr_obs.Trace.name sp = "scan(works)" then incr scans;
         match Tkr_obs.Trace.find_attr sp "shared_endpoints" with
         | Some (Tkr_obs.Trace.Bool true) -> incr shared
         | _ -> ()))
    (Tkr_obs.Trace.roots obs);
  check "mirrored splits: each side evaluated once" true (!scans = 1);
  check "mirrored splits: the second split reuses the endpoint table" true (!shared = 1);
  check "split_agg with gap filling: vec = row" true
    (differential db
       (Algebra.Split_agg
          {
            sa_group = [];
            sa_aggs = [ { Algebra.func = Agg.Count_star; agg_name = "cnt" } ];
            sa_gap = Some (0, 24);
            sa_child = works;
          }))

(* NULL-heavy inputs: every operator's NULL semantics must match the
   oracle (NULL join keys never match, NULLs group together, NULL
   predicate results drop the row) *)
let test_null_heavy () =
  let s =
    Schema.make
      [
        Schema.attr "k" Value.TInt;
        Schema.attr "v" Value.TInt;
        Schema.attr "b" Value.TInt;
        Schema.attr "e" Value.TInt;
      ]
  in
  let rows =
    [
      Tuple.make [ Value.Null; Value.Int 1; Value.Int 0; Value.Int 5 ];
      Tuple.make [ Value.Int 1; Value.Null; Value.Int 2; Value.Int 8 ];
      Tuple.make [ Value.Null; Value.Null; Value.Int 3; Value.Int 9 ];
      Tuple.make [ Value.Int 1; Value.Int 4; Value.Int 1; Value.Int 4 ];
    ]
  in
  let db = Database.create ~tmin:0 ~tmax:24 () in
  Database.add_period_table db "t" (Table.make s rows);
  let t = Algebra.Rel "t" in
  check "NULL keys: hash join never matches them (vec = row)" true
    (differential db
       (Algebra.Join (Expr.Cmp (Expr.Eq, col 0, Expr.Col 4), t, t)));
  check "NULL groups coincide in GROUP BY (vec = row)" true
    (differential db
       (Algebra.Agg
          ( [ Algebra.proj (col 0) "k" ],
            [ { Algebra.func = Agg.Sum (col 1); agg_name = "s" } ],
            t )));
  check "NULL predicate drops rows (vec = row)" true
    (differential db
       (Algebra.Select (Expr.Cmp (Expr.Gt, col 1, Expr.Const (Value.Int 0)), t)));
  check "IS NULL selects them (vec = row)" true
    (differential db (Algebra.Select (Expr.Is_null (col 0), t)));
  check "distinct with NULLs (vec = row)" true
    (differential db
       (Algebra.Distinct (Algebra.Project ([ Algebra.proj (col 0) "k" ], t))));
  check "except all with NULLs (vec = row)" true
    (differential db
       (Algebra.Diff (t, Algebra.Select (Expr.Is_null (col 0), t))));
  (* the typed int kernels over NULL masks on one side, both, or none *)
  let projs =
    List.mapi
      (fun i e -> Algebra.proj e (Printf.sprintf "x%d" i))
      [
        Expr.Greatest (col 0, col 1); Expr.Least (col 0, col 1);
        Expr.Greatest (col 2, col 0); Expr.Least (col 1, col 3);
        Expr.Greatest (col 2, col 3); Expr.Least (col 3, col 2);
        Expr.Binop (Expr.Add, col 0, col 1); Expr.Binop (Expr.Sub, col 2, col 1);
        Expr.Binop (Expr.Mul, col 0, col 3); Expr.Binop (Expr.Div, col 3, col 0);
        Expr.Binop (Expr.Mod, col 3, col 1); Expr.Neg (col 1);
        Expr.Cmp (Expr.Le, col 0, col 1); Expr.Cmp (Expr.Gt, col 2, col 1);
        Expr.Cmp (Expr.Ne, col 2, col 3);
      ]
  in
  check "GREATEST/LEAST, int arithmetic and comparisons over NULLs (vec = row)"
    true
    (differential db (Algebra.Project (projs, t)))

(* ---- qcheck: random plans are byte-identical, row vs vec ---- *)

let rewrite_random ((q, _tys), (wfacts, afacts)) =
  let works_p = NP.P.of_facts works_schema wfacts in
  let assign_p = NP.P.of_facts assign_schema afacts in
  let db = Database.create ~tmin:0 ~tmax:24 () in
  Database.add_period_table db "works" (PE.to_table works_p);
  Database.add_period_table db "assign" (PE.to_table assign_p);
  let lookup = function
    | "works" -> works_schema
    | "assign" -> assign_schema
    | n -> raise (Schema.Unknown n)
  in
  (db, Rewriter.rewrite ~options:Rewriter.optimized ~tmin:0 ~tmax:24 ~lookup q)

let prop_random_plans =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:120
       ~name:"random plan: vec rows = row-oracle rows (byte-identical)"
       Test_representation.arb
       (fun input ->
         let db, q' = rewrite_random input in
         differential db q'))

(* ---- the temporal sweeps: vec = Ops, byte for byte ---- *)

(* A table [k, v, f, b, e] per scenario.  Keys are NULL-heavy ints,
   floats (with -0.0 and NaN), mixed ints and floats (a boxed column),
   one constant or all distinct; periods are mostly short (empty and
   single-point ones included) and sometimes inverted.  Extreme times
   (negative, beyond 2^32, near min_int/max_int) overflow the packed
   sort key, so the comparison-sort fallback runs. *)
type key_mode = Few | Floats | Mixed | One | Distinct

let sweep_schema key_ty =
  Schema.make
    [
      Schema.attr "k" key_ty;
      Schema.attr "v" Value.TInt;
      Schema.attr "f" Value.TFloat;
      Schema.attr "b" Value.TInt;
      Schema.attr "e" Value.TInt;
    ]

let gen_sweep_rows ~mode ~extreme n =
  let open QCheck.Gen in
  let time =
    if extreme then
      oneof
        [
          int_range (-20) 40;
          oneofl
            [ min_int; min_int / 2; -(1 lsl 40); -(1 lsl 33); 1 lsl 33;
              (1 lsl 40) + 7; max_int / 2; max_int ];
        ]
    else int_range (-20) 40
  in
  let period =
    time >>= fun b ->
    frequency
      [
        (1, return (b, b));
        (1, return (b, if b = max_int then b else b + 1));
        (5, map (fun d -> (b, if b > max_int - d then b else b + d)) (int_range 1 12));
        (1, map (fun e -> (b, e)) time);
      ]
  in
  let key i =
    match mode with
    | Few ->
        frequency
          [ (1, return Value.Null); (4, map (fun k -> Value.Int k) (int_range 0 3)) ]
    | Floats ->
        oneofl
          [ Value.Null; Value.Float 0.5; Value.Float (-0.0); Value.Float 0.0;
            Value.Float 2.5; Value.Float Float.nan ]
    | Mixed ->
        oneofl [ Value.Null; Value.Int 1; Value.Float 1.0; Value.Int 2; Value.Float 2.5 ]
    | One -> return (Value.Int 7)
    | Distinct -> return (Value.Int i)
  in
  let v =
    frequency
      [
        (1, return Value.Null);
        (6, map (fun x -> Value.Int x) (int_range (-50) 50));
        (1, oneofl [ Value.Int max_int; Value.Int min_int ]);
      ]
  in
  let f =
    frequency
      [
        (1, return Value.Null);
        (4, map (fun x -> Value.Float x) (float_range (-10.) 10.));
      ]
  in
  flatten_l
    (List.init n (fun i ->
         map
           (fun (k, v, f, (b, e)) ->
             Tuple.make [ k; v; f; Value.Int b; Value.Int e ])
           (quad (key i) v f period)))

let gen_sweep_case =
  let open QCheck.Gen in
  oneofl [ Few; Floats; Mixed; One; Distinct ] >>= fun mode ->
  bool >>= fun extreme ->
  (* mostly small; sometimes one group (or all-distinct groups) of
     thousands of rows *)
  (match mode with
  | One | Distinct -> frequency [ (4, int_range 0 30); (1, int_range 2000 3000) ]
  | _ -> int_range 0 30)
  >>= fun n ->
  gen_sweep_rows ~mode ~extreme n >>= fun t ->
  gen_sweep_rows ~mode ~extreme (min n 40) >>= fun u ->
  pair (int_range (-30) 0) (int_range 40 60) >>= fun (tmin, tmax) ->
  (if extreme then oneofl [ (tmin, tmax); (min_int, max_int); (-(1 lsl 40), 1 lsl 40) ]
   else return (tmin, tmax))
  >>= fun gap -> return (mode, t, u, gap)

let sweep_plans gap =
  let t = Algebra.Rel "t" and u = Algebra.Rel "u" in
  let kbe q =
    Algebra.Project
      ( [ Algebra.proj (col 0) "k"; Algebra.proj (col 3) "b"; Algebra.proj (col 4) "e" ],
        q )
  in
  let split g l r = Algebra.Split (g, l, r) in
  let agg func agg_name = { Algebra.func; agg_name } in
  let int_aggs =
    [
      agg Agg.Count_star "n"; agg (Agg.Count (col 1)) "nv"; agg (Agg.Sum (col 1)) "s";
      agg (Agg.Avg (col 1)) "a"; agg (Agg.Min (col 1)) "lo"; agg (Agg.Max (col 1)) "hi";
    ]
  in
  (* float inputs: sums take the order-sensitive fold *)
  let float_aggs =
    [
      agg (Agg.Sum (col 2)) "fs"; agg (Agg.Avg (col 2)) "fa";
      agg (Agg.Min (col 2)) "flo"; agg (Agg.Max (col 2)) "fhi";
      agg (Agg.Count (col 2)) "fn";
    ]
  in
  let sa ?gap group aggs child =
    Algebra.Split_agg
      { sa_group = group; sa_aggs = aggs; sa_gap = gap; sa_child = child }
  in
  [
    ("coalesce", Algebra.Coalesce t);
    ("coalesce (k, b, e)", Algebra.Coalesce (kbe t));
    ("split", split [ 0 ] t u);
    ("split (self)", split [ 0 ] t t);
    ("split (no group)", split [] t u);
    ("split_agg int", sa [ 0 ] int_aggs t);
    ("split_agg float", sa [ 0 ] float_aggs t);
    ( "split_agg key extrema",
      sa [ 1 ] [ agg (Agg.Min (col 0)) "m"; agg (Agg.Max (col 0)) "x" ] t );
    ("split_agg gap", sa ~gap [] (int_aggs @ float_aggs) t);
    ("split_agg gap count(f)", sa ~gap [] [ agg (Agg.Count (col 2)) "fn" ] t);
    (* plain γ folds each group's rows in row order: typed int and float
       slots, and the boxed fallback over a mixed key column *)
    ("aggregate int", Algebra.Agg ([ Algebra.proj (col 0) "k" ], int_aggs, t));
    ("aggregate float", Algebra.Agg ([ Algebra.proj (col 0) "k" ], float_aggs, t));
    ("aggregate (no group)", Algebra.Agg ([], int_aggs @ float_aggs, t));
    ( "aggregate key column",
      Algebra.Agg
        ( [ Algebra.proj (col 1) "v" ],
          [
            agg (Agg.Min (col 0)) "m"; agg (Agg.Max (col 0)) "x";
            agg (Agg.Sum (col 0)) "s"; agg (Agg.Avg (col 0)) "a";
            agg (Agg.Count (col 0)) "c";
          ],
          t ) );
    ("mirrored splits", Algebra.Diff (split [ 0 ] t u, split [ 0 ] u t));
    ("mirrored splits (one table)", Algebra.Diff (split [ 0 ] t t, split [ 0 ] t t));
    (* equal but separately built sides share too *)
    ( "mirrored splits (rebuilt sides)",
      Algebra.Diff (split [ 0 ] (kbe t) (kbe u), split [ 0 ] (kbe u) (kbe t)) );
  ]

let prop_sweeps =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:150
       ~name:"temporal sweeps: coalesce / split / split_agg / mirrored split, vec = Ops"
       (QCheck.make gen_sweep_case)
       (fun (mode, t, u, gap) ->
         let key_ty = match mode with Floats -> Value.TFloat | _ -> Value.TInt in
         let db = Database.create ~tmin:0 ~tmax:24 () in
         Database.add_period_table db "t" (Table.make (sweep_schema key_ty) t);
         Database.add_period_table db "u" (Table.make (sweep_schema key_ty) u);
         List.iter
           (fun (name, q) ->
             if not (differential db q) then
               QCheck.Test.fail_reportf "%s differs from Ops (%d rows)" name
                 (List.length t))
           (sweep_plans gap);
         true))

(* ---- middleware end to end ---- *)

let setup_sql =
  {|
  CREATE TABLE works (name text, skill text, b int, e int) PERIOD (b, e);
  INSERT INTO works VALUES
    ('Ann', 'SP', 3, 10), ('Joe', 'NS', 8, 16),
    ('Sam', 'SP', 8, 16), ('Ann', 'SP', 18, 20);
  CREATE TABLE assign (mach text, skill text, b int, e int) PERIOD (b, e);
  INSERT INTO assign VALUES
    ('M1', 'SP', 3, 12), ('M2', 'SP', 6, 14), ('M3', 'NS', 3, 16);
|}

let e2e_queries =
  [
    "SEQ VT (SELECT count(*) AS cnt FROM works WHERE skill = 'SP')";
    "SEQ VT (SELECT w.name, a.mach FROM works w JOIN assign a ON w.skill = \
     a.skill)";
    "SEQ VT (SELECT skill, count(*) AS cnt FROM works GROUP BY skill)";
    "SEQ VT (SELECT DISTINCT skill FROM works)";
    "SELECT name, skill FROM works EXCEPT ALL SELECT name, skill FROM works \
     WHERE skill = 'NS'";
    (* join residuals evaluated row-at-a-time (IN, LIKE, CASE) *)
    "SELECT w.name, a.mach FROM works w JOIN assign a ON w.skill = a.skill \
     WHERE w.name IN ('Joe') OR a.mach = 'M1'";
    "SEQ VT (SELECT w.name, a.mach FROM works w JOIN assign a ON w.skill = \
     a.skill WHERE w.name LIKE 'J%' OR a.mach = 'M1')";
    "SELECT w.name, a.mach FROM works w JOIN assign a ON w.skill = a.skill \
     WHERE CASE WHEN a.mach = 'M1' THEN w.b ELSE 0 END > 2";
  ]

let test_middleware_engines () =
  let fresh engine =
    let m = M.create ~engine () in
    Tkr_engine.Database.set_time_bounds (M.database m) ~tmin:0 ~tmax:24;
    ignore (M.execute_script m setup_sql);
    m
  in
  let mrow = fresh M.Row and mvec = fresh M.Vec in
  check "middleware reports its engine" true
    (M.engine mrow = M.Row && M.engine mvec = M.Vec);
  List.iter
    (fun sql ->
      check (Printf.sprintf "middleware row = vec: %s" sql) true
        (byte_identical (M.query mrow sql) (M.query mvec sql)))
    e2e_queries

(* ---- every engine, index and prune setting renders the default's bytes ---- *)

(* the row oracle and the index/prune overrides are reached only through
   [M.create]; the default (vec, index and pruning on) comes first *)
let settings =
  [
    ("default", fun db -> M.create ~db ());
    ("engine=row", fun db -> M.create ~engine:M.Row ~db ());
    ("index=off", fun db -> M.create ~index:false ~db ());
    ("prune=off", fun db -> M.create ~prune:false ~db ());
    ("engine=row prune=off", fun db -> M.create ~engine:M.Row ~prune:false ~db ());
  ]

(* a source makes its catalog and its scripts, fresh for every setting.
   The workloads run at [tkr run --workload]'s scale, the example
   scripts over an empty catalog, as [tkr run -f] runs them *)
let script_sources =
  let file name () =
    ( Database.create (),
      [ In_channel.with_open_bin ("../examples/sql/" ^ name) In_channel.input_all ] )
  in
  [
    ( "employee",
      fun () ->
        ( Tkr_workload.Employees.generate
            { (Tkr_workload.Employees.scaled 150) with tmax = 2000 },
          List.map snd Tkr_workload.Queries.employee ) );
    ( "tpch",
      fun () ->
        ( Tkr_workload.Tpcbih.generate
            { Tkr_workload.Tpcbih.default with scale = 0.05 },
          List.map snd Tkr_workload.Queries.tpch ) );
    ("crud.sql", file "crud.sql");
    ("nonequi.sql", file "nonequi.sql");
    ("keys.sql", file "keys.sql");
    ("asof.sql", file "asof.sql");
  ]

let render_result = function
  | M.Rows t -> Table.to_text ~max_rows:1_000_000 t
  | M.Done msg -> msg ^ "\n"

let test_scripts_all_settings () =
  List.iter
    (fun (source, make) ->
      let run (_, create) =
        let db, scripts = make () in
        let m = create db in
        String.concat ""
          (List.concat_map
             (fun s -> List.map render_result (M.execute_script m s))
             scripts)
      in
      let want = run (List.hd settings) in
      List.iter
        (fun ((name, _) as setting) ->
          let got = run setting in
          if not (String.equal want got) then
            let lines = String.split_on_char '\n' in
            let rec first_diff i = function
              | w :: ws, g :: gs ->
                  if String.equal w g then first_diff (i + 1) (ws, gs)
                  else Printf.sprintf "line %d: %S <> %S" i w g
              | _ -> Printf.sprintf "line %d: one output ends" i
            in
            Alcotest.failf "%s under %s differs from the default at %s" source
              name
              (first_diff 1 (lines want, lines got)))
        (List.tl settings))
    script_sources

(* ---- the shipped default at benchmark scale ---- *)

(* the benchmark's catalog: 1000 employees over [0, 4000) *)
let bench_db =
  lazy
    (Tkr_workload.Employees.generate
       { (Tkr_workload.Employees.scaled 1000) with tmax = 4000 })

(* the inner queries of the benchmark's AS OF reads: the four served
   shapes, then the three read after writes *)
let serve_shapes =
  [
    "SELECT d.dept_no, s.emp_no, s.salary FROM dept_emp d, salaries s WHERE \
     d.emp_no = s.emp_no";
    "SELECT d.dept_no, avg(s.salary) AS avg_salary FROM dept_emp d, salaries \
     s WHERE d.emp_no = s.emp_no GROUP BY d.dept_no";
    "SELECT m.dept_no FROM dept_manager m, salaries s WHERE m.emp_no = \
     s.emp_no AND s.salary > 70000";
    "SELECT emp_no FROM employees EXCEPT ALL SELECT emp_no FROM dept_manager";
  ]

let write_read_shapes =
  [
    "SELECT title, count(*) AS n FROM titles GROUP BY title";
    "SELECT d.dept_no, count(*) AS n FROM titles t, dept_emp d WHERE \
     t.emp_no = d.emp_no GROUP BY d.dept_no";
    "SELECT t.title, avg(s.salary) AS pay FROM salaries s, titles t WHERE \
     s.emp_no = t.emp_no GROUP BY t.title";
  ]

(* the default middleware (vec, index and pruning on) renders every
   benchmark statement byte for byte like the row oracle with index and
   pruning off *)
let test_bench_scale_identity () =
  let db = Lazy.force bench_db in
  let m = M.create ~db () in
  let oracle = M.create ~engine:M.Row ~index:false ~prune:false ~db () in
  check "vec is the default engine" true (M.engine m = M.Vec);
  let as_of =
    List.concat_map
      (fun q ->
        List.map
          (fun t -> Printf.sprintf "SEQ VT AS OF %d (%s)" t q)
          [ 600; 2000; 3500 ])
      (serve_shapes @ write_read_shapes)
  in
  List.iter
    (fun sql ->
      if not (byte_identical (M.query oracle sql) (M.query m sql)) then
        Alcotest.failf "default differs from the row oracle: %s" sql)
    (List.map snd Tkr_workload.Queries.employee @ as_of)

(* A warm execution of the hottest served statement allocates at most
   10k words directly in the major heap (major minus promoted words):
   operator scratch buffers are reused, projections share columns, and
   constant filters test rows in place. *)
let test_alloc_guard () =
  let m = M.create ~engine:M.Vec ~db:(Lazy.force bench_db) () in
  let p =
    M.prepare m
      (Printf.sprintf "SEQ VT AS OF 2000 (%s)" (List.nth serve_shapes 1))
  in
  ignore (M.run_prepared m p);
  let _, promoted0, major0 = Gc.counters () in
  ignore (M.run_prepared m p);
  let _, promoted1, major1 = Gc.counters () in
  let direct = major1 -. major0 -. (promoted1 -. promoted0) in
  if direct > 10_000. then
    Alcotest.failf "warm agg-1 AS OF 2000 allocated %.0f words directly in \
                    the major heap (bound 10000)" direct

(* An all-int keyset interns and looks up without allocating, on both
   paths: the probes are plain loops with no closure and no result tuple
   (these 8,192 calls took 123,072 minor words before).  The first
   keyset's span (64 x 16) is within its rows, so it addresses directly;
   the others' (1000 x 1000, and one holding [min_int] and [max_int])
   are far beyond them, so they hash. *)
let test_key_alloc () =
  let n = 4096 in
  let col f = { Batch.data = Batch.Ints (Array.init n f); nulls = None } in
  let probe name ~direct cols =
    let key = Tkr_vec.Key.create ~hint:n [| cols; cols |] in
    check (name ^ ": direct addressing") direct (Tkr_vec.Key.direct key);
    let w0 = Gc.minor_words () in
    for i = 0 to n - 1 do
      ignore (Tkr_vec.Key.intern key ~src:0 ~row:i)
    done;
    for i = 0 to n - 1 do
      ignore (Tkr_vec.Key.lookup key ~src:1 ~row:i)
    done;
    let words = Gc.minor_words () -. w0 in
    let distinct = Hashtbl.create n in
    for i = 0 to n - 1 do
      Hashtbl.replace distinct
        (Array.map
           (fun (c : Batch.col) ->
             match c.Batch.data with Batch.Ints a -> a.(i) | _ -> assert false)
           cols)
        ()
    done;
    check (name ^ ": one group per distinct key") true
      (Tkr_vec.Key.count key = Hashtbl.length distinct);
    Tkr_vec.Key.release key;
    (* a few words of slack for the float the counter itself returns *)
    if words > 16. then
      Alcotest.failf "%d all-int interns and lookups (%s) allocated %.0f minor words"
        (2 * n) name words
  in
  probe "direct" ~direct:true
    [| col (fun i -> (i mod 64) - 40); col (fun i -> i / 64 mod 16) |];
  probe "hashed, wide" ~direct:false
    [| col (fun i -> i * 3 mod 1000); col (fun i -> i * 4 mod 1000) |];
  probe "hashed, extreme" ~direct:false
    [| col (fun i -> if i mod 2 = 0 then min_int else max_int - (i mod 7)) |]

(* Keyset ids against a reference: rows of two sources interned and
   looked up in turn must get the ids that grouping the boxed tuples by
   [Value.compare] gives, in first-appearance order, whichever source is
   typed ([Batch.col_of_values]) and whichever is its [Boxed] twin.  A
   source with a selection ([sels]) interns and looks up only the rows it
   lists.  Returns whether the all-typed keyset addressed its keys
   directly. *)
let keyset_agrees ?sels (tys : Value.ty array) (srcs : Value.t array array array)
    : bool =
  let module Key = Tkr_vec.Key in
  let k = Array.length tys in
  let typed rows =
    Array.init k (fun j ->
        Batch.col_of_values tys.(j) (Array.length rows) (fun i -> rows.(i).(j)))
  in
  let boxed rows =
    Array.init k (fun j ->
        { Batch.data = Batch.Boxed (Array.map (fun r -> r.(j)) rows); nulls = None })
  in
  (* the reference: an association list from tuples to ids *)
  let seen = ref [] in
  let find t =
    List.find_map
      (fun (t', id) ->
        if Array.for_all2 (fun a b -> Value.compare a b = 0) t t' then Some id
        else None)
      !seen
  in
  let ref_intern t =
    match find t with
    | Some id -> id
    | None ->
        let id = List.length !seen in
        seen := (t, id) :: !seen;
        id
  in
  let ref_lookup t = Option.value (find t) ~default:(-1) in
  let sels = Option.value sels ~default:(Array.map (fun _ -> None) srcs) in
  (* intern source 0, look up source 1, intern source 1, look up both *)
  let script intern lookup =
    let each src f =
      match sels.(src) with
      | Some rows -> List.map (f src) (Array.to_list rows)
      | None -> List.init (Array.length srcs.(src)) (f src)
    in
    List.concat
      [
        each 0 intern; each 1 lookup; each 1 intern; each 0 lookup; each 1 lookup;
      ]
  in
  let expected =
    script
      (fun src i -> ref_intern srcs.(src).(i))
      (fun src i -> ref_lookup srcs.(src).(i))
  in
  let run reps =
    let key = Key.create ~hint:4 ~sels (Array.mapi (fun s f -> f srcs.(s)) reps) in
    let got =
      script
        (fun src row -> Key.intern key ~src ~row)
        (fun src row -> Key.lookup key ~src ~row)
    in
    let direct = Key.direct key in
    let count = Key.count key in
    Key.release key;
    if got <> expected || count <> List.length !seen then
      Alcotest.failf "keyset ids differ from Value.compare grouping (%s)"
        (String.concat ","
           (Array.to_list
              (Array.map (fun f -> if f == typed then "typed" else "boxed") reps)));
    direct
  in
  let direct = run [| typed; typed |] in
  List.iter
    (fun reps -> ignore (run reps))
    [ [| boxed; boxed |]; [| typed; boxed |]; [| boxed; typed |] ];
  direct

(* a NaN whose bits differ from [nan]'s: every NaN is one key *)
let odd_nan = Int64.float_of_bits 0x7FF0_0000_0000_0123L

(* key columns: small int ranges (negative ones too), extreme ints,
   floats with -0.0/0.0 and NaNs of two bit patterns, text, bools and a
   column mixing [Int 1] and [Float 1.] (stored boxed), each NULL-free
   or NULL-bearing; each source with or without a selection *)
let gen_keyset_case =
  let open QCheck.Gen in
  let kind =
    oneof
      [
        map2 (fun lo w -> (Value.TInt, map (fun i -> Value.Int (lo + i)) (int_bound w)))
          (oneofl [ -50; -3; 0 ]) (int_range 0 40);
        return
          ( Value.TInt,
            oneofl [ Value.Int min_int; Value.Int max_int; Value.Int 0; Value.Int (-1) ] );
        return
          ( Value.TFloat,
            oneofl
              (List.map (fun f -> Value.Float f) [ 0.; -0.; nan; odd_nan; 1.; -2.5; infinity ]) );
        return (Value.TStr, oneofl [ Value.Str ""; Value.Str "a"; Value.Str "ab" ]);
        return (Value.TBool, map (fun b -> Value.Bool b) bool);
        return
          ( Value.TInt,
            oneofl [ Value.Int 1; Value.Float 1.; Value.Int 0; Value.Float (-0.) ] );
      ]
  in
  let column = pair kind (oneofl [ 0; 0; 5 ]) in
  int_range 1 3 >>= fun k ->
  list_repeat k column >>= fun cols ->
  let row =
    flatten_l
      (List.map
         (fun ((_, v), nulls) ->
           if nulls = 0 then v
           else frequency [ (1, return Value.Null); (nulls, v) ])
         cols)
  in
  let rows = int_range 0 40 >>= fun n -> array_repeat n (map Array.of_list row) in
  (* no selection, or an ascending subset of the rows *)
  let sel rows =
    let n = Array.length rows in
    oneof
      [
        return None;
        map
          (fun keep -> Some (Array.of_list (List.filter (fun i -> keep.(i)) (List.init n Fun.id))))
          (array_repeat n bool);
      ]
  in
  let source = rows >>= fun r -> map (fun s -> (r, s)) (sel r) in
  map2
    (fun (a, sa) (b, sb) ->
      (Array.of_list (List.map (fun ((ty, _), _) -> ty) cols), [| a; b |], [| sa; sb |]))
    source source

let prop_keyset =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300
       ~name:"keyset: ids = Value.compare grouping (typed and boxed twins)"
       (QCheck.make gen_keyset_case)
       (fun (tys, srcs, sels) ->
         ignore (keyset_agrees ~sels tys srcs);
         true))

(* The keyset's edge keys, each with its expected path *)
let test_keyset_edges () =
  let ints l = Array.of_list (List.map (fun v -> [| Value.Int v |]) l) in
  let agrees name ?direct ?sels tys srcs =
    let d = keyset_agrees ?sels tys srcs in
    match direct with
    | Some want ->
        check (Printf.sprintf "%s: %s" name (if want then "direct" else "hashed")) want d
    | None -> ()
  in
  agrees "-0.0 = 0.0" [| Value.TFloat |]
    [| [| [| Value.Float 0. |]; [| Value.Float (-0.) |] |]; [| [| Value.Float (-0.) |] |] |];
  agrees "every NaN is one key" [| Value.TFloat |]
    [| [| [| Value.Float nan |]; [| Value.Float odd_nan |] |];
       [| [| Value.Float (-.odd_nan) |] |] |];
  agrees "Int 1 <> Float 1." [| Value.TInt |]
    [| [| [| Value.Int 1 |]; [| Value.Float 1. |]; [| Value.Int 1 |] |];
       [| [| Value.Float 1. |] |] |];
  agrees "negative ints" ~direct:true [| Value.TInt |]
    [| ints [ -5; -3; -5; -4 ]; ints [ -4; -6; -3 ] |];
  agrees "min_int/max_int overflow the span" ~direct:false [| Value.TInt |]
    [| ints [ min_int; max_int; min_int ]; ints [ max_int; 0 ] |];
  agrees "a wide key outside the selection" ~direct:true [| Value.TInt |]
    ~sels:[| Some [| 0; 2; 3 |]; None |]
    [| ints [ -5; max_int; -3; -5 ]; ints [ -4; -3 ] |];
  agrees "two columns, wide packed span" ~direct:false
    [| Value.TInt; Value.TInt |]
    [| Array.init 8 (fun i -> [| Value.Int i; Value.Int (i * 1000) |]); [||] |];
  (* [n] rows over both sources: a span of [direct_factor · n] values
     is direct, one more is hashed *)
  let n = 12 in
  let bound = Tkr_vec.Key.direct_factor * n in
  let spanning top =
    [| ints (List.init (n - 3) (fun i -> i) @ [ top - 1 ]); ints [ 0; 3 ] |]
  in
  agrees "span at the bound" ~direct:true [| Value.TInt |] (spanning bound);
  agrees "span past the bound" ~direct:false [| Value.TInt |] (spanning (bound + 1))

(* A hash join whose overlap residual fuses tests its candidates a block
   at a time without allocating per candidate: joining 1,024 rows to
   themselves (131,072 candidates) allocates no more minor words than
   joining 512 (32,768 candidates), once both are warm.  Only survivors'
   counts are kept ([need:[]]); the block and the keyset's arrays come
   from the scratch pool. *)
let test_block_residual_alloc () =
  let schema =
    Schema.make
      [ Schema.attr "k" Value.TInt; Schema.attr "b" Value.TInt; Schema.attr "e" Value.TInt ]
  in
  let batch n =
    let ints f = { Batch.data = Batch.Ints (Array.init n f); nulls = None } in
    Batch.of_cols schema n
      [| ints (fun i -> i mod 8); ints (fun i -> i mod 97); ints (fun i -> (i mod 97) + (i mod 13)) |]
  in
  (* l.k = r.k AND l.b < r.e AND r.b < l.e *)
  let pred =
    Expr.And
      ( Expr.Cmp (Expr.Eq, col 0, col 3),
        Expr.And (Expr.Cmp (Expr.Lt, col 1, col 5), Expr.Cmp (Expr.Lt, col 4, col 2)) )
  in
  let words n =
    let b = batch n in
    let join () = ignore (Sys.opaque_identity (Vexec.join ~need:[] None pred b b)) in
    join ();
    let w0 = Gc.minor_words () in
    join ();
    Gc.minor_words () -. w0
  in
  let small = words 512 and large = words 1024 in
  if large -. small > 64. then
    Alcotest.failf "131,072 candidates allocated %.0f minor words, 32,768 allocated %.0f"
      large small

(* A nested loop over about 2M candidate pairs that only counts its
   survivors allocates almost nothing directly in the major heap: the
   fused residual tests each pair in place, and no pair index is kept
   when no output column is read (the candidate and gathered arrays took
   23.7M words before).  So does a band [a.x > b.x + 3000], whose
   operand offset the fused test applies (the blocked [Veval] test of it
   took about 6 words per pair). *)
let test_nested_loop_alloc () =
  let s = Schema.make [ Schema.attr "x" Value.TInt ] in
  let db = Database.create ~tmin:0 ~tmax:24 () in
  Database.add_table db "t"
    (Table.make s
       (List.init 1415 (fun i -> Tuple.make [ Value.Int (i * 7919 mod 1000) ])));
  let t = Algebra.Rel "t" in
  List.iter
    (fun (name, residual) ->
      let q =
        Algebra.Agg
          ( [],
            [ { Algebra.func = Agg.Count_star; agg_name = "n" } ],
            Algebra.Join (residual, t, t) )
      in
      ignore (Vexec.eval db q);
      let _, promoted0, major0 = Gc.counters () in
      ignore (Vexec.eval db q);
      let _, promoted1, major1 = Gc.counters () in
      let direct = major1 -. major0 -. (promoted1 -. promoted0) in
      if direct > 10_000. then
        Alcotest.failf "a 2M-pair nested loop on %s allocated %.0f words directly \
                        in the major heap (bound 10000)" name direct)
    [
      ("a.x < b.x", Expr.Cmp (Expr.Lt, col 0, col 1));
      ( "a.x > b.x + 3000",
        Expr.Cmp (Expr.Gt, col 0, Expr.Binop (Expr.Add, col 1, Expr.Const (Value.Int 3000))) );
    ]

(* The temporal sweeps allocate nothing per group and the join nothing
   per candidate: a warm execution of SEQ VT agg-1 (split_agg), diff-2
   (EXCEPT ALL's mirrored splits) and join-1 (hash join with the overlap
   residual) stays within 1.25x of the minor-heap words measured once
   gathers, keyset probes and the residual test became closure-free
   loops (166,041, 143,223 and 166,199 words; 537,471, 399,516 and
   408,157 before).  Allocation counts repeat exactly from run to run,
   so the bound is deterministic. *)
let test_sweep_alloc_guard () =
  let m = M.create ~engine:M.Vec ~db:(Lazy.force bench_db) () in
  List.iter
    (fun (name, bound) ->
      let p =
        M.prepare m (Tkr_workload.Queries.lookup name Tkr_workload.Queries.employee)
      in
      ignore (M.run_prepared m p);
      let w0 = Gc.minor_words () in
      ignore (M.run_prepared m p);
      let words = Gc.minor_words () -. w0 in
      if words > bound then
        Alcotest.failf "warm SEQ VT %s allocated %.0f minor words (bound %.0f)"
          name words bound)
    [ ("agg-1", 207_551.); ("diff-2", 179_029.); ("join-1", 207_749.) ]

let suite =
  ( "vectorized engine (Tkr_vec)",
    [
      Alcotest.test_case "batch: roundtrips (typed, boxed, memoized)" `Quick
        test_roundtrip;
      Alcotest.test_case "batch: selection-vector edge cases" `Quick
        test_selection_edges;
      Alcotest.test_case "batch: empty batches" `Quick test_empty_batch;
      Alcotest.test_case "operator: select" `Quick test_op_select;
      Alcotest.test_case "operator: project" `Quick test_op_project;
      Alcotest.test_case "operator: join (hash + nested loop)" `Quick
        test_op_join;
      Alcotest.test_case "operator: union / except all" `Quick
        test_op_union_diff;
      Alcotest.test_case "operator: aggregate / distinct" `Quick
        test_op_agg_distinct;
      Alcotest.test_case "operator: aggregate edge cases (typed, boxed)" `Quick
        test_agg_edges;
      Alcotest.test_case "operator: coalesce / split / split_agg" `Quick
        test_op_temporal;
      Alcotest.test_case "NULL-heavy inputs" `Quick test_null_heavy;
      prop_random_plans;
      prop_sweeps;
      Alcotest.test_case "middleware: row vs vec end to end" `Quick
        test_middleware_engines;
      Alcotest.test_case "scripts: every setting renders the default's bytes"
        `Quick test_scripts_all_settings;
      Alcotest.test_case "benchmark scale: default = row oracle" `Slow
        test_bench_scale_identity;
      Alcotest.test_case "warm serve read: direct major allocation" `Quick
        test_alloc_guard;
      Alcotest.test_case "warm SEQ VT sweeps: minor-heap words" `Quick
        test_sweep_alloc_guard;
      Alcotest.test_case "keyset: all-int intern/lookup allocate nothing" `Quick
        test_key_alloc;
      Alcotest.test_case "nested loop: direct major allocation" `Quick
        test_nested_loop_alloc;
      Alcotest.test_case "join: block residual allocates nothing per candidate"
        `Quick test_block_residual_alloc;
      prop_keyset;
      Alcotest.test_case "keyset: edge keys and the direct-addressing bound"
        `Quick test_keyset_edges;
    ] )

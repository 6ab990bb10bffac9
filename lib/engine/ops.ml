(** Physical temporal operators over the period encoding.

    All three operators rely on the encoding convention that the last two
    columns of their input are the period attributes [Abegin]/[Aend]
    (integers).

    - {!coalesce} is the SQL-window-function style multiset coalescing of
      Section 9: per distinct data prefix, a single sort of the interval
      endpoints followed by a sweep that counts open intervals and emits
      maximal constant segments — O(n log n).
    - {!split} is the split operator N_G of Def. 8.3.
    - {!split_agg} is the fused, pre-aggregated split+aggregate of the
      paper's optimized rewriting (Section 9). *)

open Tkr_relation

let period_of_row row =
  let n = Tuple.arity row in
  match (Tuple.get row (n - 2), Tuple.get row (n - 1)) with
  | Value.Int b, Value.Int e -> (b, e)
  | _ -> invalid_arg "engine: malformed period encoding (non-integer period)"

let data_of_row row =
  let n = Tuple.arity row in
  Tuple.project (List.init (n - 2) Fun.id) row

(** Multiset coalescing: for every distinct data prefix, compute the
    maximal intervals of constant multiplicity (counting open intervals)
    and emit that many duplicate rows per interval. *)
let coalesce (t : Table.t) : Table.t =
  let groups : (Tuple.t, (int * int) list ref) Hashtbl.t = Hashtbl.create 256 in
  let order = ref [] in
  Array.iter
    (fun row ->
      let data = data_of_row row in
      let p = period_of_row row in
      match Hashtbl.find_opt groups data with
      | Some cell -> cell := p :: !cell
      | None ->
          Hashtbl.add groups data (ref [ p ]);
          order := data :: !order)
    (Table.rows t);
  (* one group's sweep: its rows in forward (time) order *)
  let group_rows data =
    let intervals = !(Hashtbl.find groups data) in
    let buf = ref [] in
    let emit b e count =
      if count > 0 then (
        let row = Tuple.append data (Tuple.make [ Value.Int b; Value.Int e ]) in
        for _ = 1 to count do
          buf := row :: !buf
        done)
    in
    (* events: +1 at begins, -1 at ends; sweep in time order *)
    let events =
      List.concat_map (fun (b, e) -> [ (b, 1); (e, -1) ]) intervals
      |> List.sort (fun (t1, _) (t2, _) -> Int.compare t1 t2)
    in
    (* emit only maximal segments: a segment closes when the count of
       open intervals actually changes, not at every endpoint *)
    let rec sweep seg_start count = function
      | [] -> ()
      | (t, d) :: rest ->
          (* fold all events at the same time point *)
          let rec absorb d rest =
            match rest with
            | (t', d') :: more when t' = t -> absorb (d + d') more
            | _ -> (d, rest)
          in
          let delta, rest = absorb d rest in
          if delta = 0 then sweep seg_start count rest
          else (
            if t > seg_start then emit seg_start t count;
            sweep t (count + delta) rest)
    in
    (match events with [] -> () | (t0, _) :: _ -> sweep t0 0 events);
    List.rev !buf
  in
  Table.make (Table.schema t) (List.concat_map group_rows (List.rev !order))

module IS = Set.Make (Int)

(* Endpoint sets per group key, from the rows of one or two tables. *)
let endpoint_sets group_cols tables =
  let eps : (Tuple.t, IS.t ref) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun t ->
      Array.iter
        (fun row ->
          let key = Tuple.project group_cols row in
          let b, e = period_of_row row in
          match Hashtbl.find_opt eps key with
          | Some cell -> cell := IS.add b (IS.add e !cell)
          | None -> Hashtbl.add eps key (ref (IS.add b (IS.singleton e))))
        (Table.rows t))
    tables;
  eps

(* Cut [b, e) at the endpoints of [eps] strictly inside it. *)
let cut_interval eps b e =
  let inner = IS.filter (fun p -> b < p && p < e) eps in
  let points = (b :: IS.elements inner) @ [ e ] in
  let rec pairs = function
    | x :: (y :: _ as rest) -> (x, y) :: pairs rest
    | _ -> []
  in
  pairs points

(* Endpoint sets per key, where each table contributes under its own key
   columns (used by the alignment baseline, whose two inputs have different
   schemas). *)
let endpoint_sets_keyed (sources : (int list * Table.t) list) =
  let eps : (Tuple.t, IS.t ref) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun (key_cols, t) ->
      Array.iter
        (fun row ->
          let key = Tuple.project key_cols row in
          let b, e = period_of_row row in
          match Hashtbl.find_opt eps key with
          | Some cell -> cell := IS.add b (IS.add e !cell)
          | None -> Hashtbl.add eps key (ref (IS.add b (IS.singleton e))))
        (Table.rows t))
    sources;
  eps

(* Fragments of one row, split at its key's endpoints (forward order). *)
let row_fragments eps key_cols row =
  let key = Tuple.project key_cols row in
  let b, e = period_of_row row in
  let points =
    match Hashtbl.find_opt eps key with Some s -> !s | None -> IS.empty
  in
  let data = data_of_row row in
  List.map
    (fun (sb, se) ->
      Tuple.append data (Tuple.make [ Value.Int sb; Value.Int se ]))
    (cut_interval points b e)

(** Split every row of [t] at the endpoints its key maps to in [eps]. *)
let split_with eps key_cols (t : Table.t) : Table.t =
  Table.make (Table.schema t)
    (List.concat_map (row_fragments eps key_cols) (Table.to_list t))

(** N_G(R1, R2) of Def. 8.3: split every R1 row at the endpoints of all
    rows of R1 ∪ R2 that agree with it on the group columns. *)
let split group_cols (left : Table.t) (right : Table.t) : Table.t =
  split_with (endpoint_sets group_cols [ left; right ]) group_cols left

(** Fused pre-aggregated split+aggregate (Section 9).

    The input is first pre-aggregated per (group, interval); the
    pre-aggregates are then swept over the elementary segments of each
    group's endpoint set and combined per segment.  With [gap = Some
    (tmin, tmax)] (aggregation without GROUP BY) every segment of the
    whole time domain produces a row, using the aggregate's value over the
    empty input when nothing covers the segment — the fix for the
    aggregation-gap bug. *)
let split_agg ~(group : int list) ~(aggs : Algebra.agg_spec list)
    ~(gap : (int * int) option) (child : Table.t) : Table.t =
  let child_schema = Table.schema child in
  let n_aggs = List.length aggs in
  let agg_arr = Array.of_list aggs in
  (* pre-aggregate per (group values, b, e) *)
  let pre : (Tuple.t * int * int, Agg.acc array) Hashtbl.t = Hashtbl.create 256 in
  let pre_order = ref [] in
  let group_eps : (Tuple.t, IS.t ref) Hashtbl.t = Hashtbl.create 64 in
  let group_order = ref [] in
  Array.iter
    (fun row ->
      let key = Tuple.project group row in
      let b, e = period_of_row row in
      let accs =
        match Hashtbl.find_opt pre (key, b, e) with
        | Some a -> a
        | None ->
            let a = Array.make n_aggs Agg.empty in
            Hashtbl.add pre (key, b, e) a;
            pre_order := (key, b, e) :: !pre_order;
            a
      in
      Array.iteri
        (fun i (spec : Algebra.agg_spec) ->
          let v =
            match Agg.input_expr spec.func with
            | None -> Value.Int 1
            | Some ex -> Expr.eval row ex
          in
          accs.(i) <- Agg.step accs.(i) v)
        agg_arr;
      (match Hashtbl.find_opt group_eps key with
      | Some cell -> cell := IS.add b (IS.add e !cell)
      | None ->
          Hashtbl.add group_eps key (ref (IS.add b (IS.singleton e)));
          group_order := key :: !group_order))
    (Table.rows child);
  (* the empty group must exist for gap-covering aggregation *)
  (match gap with
  | Some (tmin, tmax) ->
      let key = Tuple.make [] in
      (match Hashtbl.find_opt group_eps key with
      | Some cell -> cell := IS.add tmin (IS.add tmax !cell)
      | None ->
          Hashtbl.add group_eps key (ref (IS.add tmin (IS.singleton tmax)));
          group_order := key :: !group_order)
  | None -> ());
  (* collect pre-aggregates per group for the sweep, in first-appearance
     order (not [Hashtbl.iter] order): together with the stable sort below
     this makes the per-segment combine order — and hence float rounding —
     a deterministic function of the input rows, reproducible by other
     engines *)
  let entries : (Tuple.t, (int * int * Agg.acc array) list ref) Hashtbl.t =
    Hashtbl.create 64
  in
  List.iter
    (fun ((key, b, e) as k) ->
      let accs = Hashtbl.find pre k in
      match Hashtbl.find_opt entries key with
      | Some cell -> cell := (b, e, accs) :: !cell
      | None -> Hashtbl.add entries key (ref [ (b, e, accs) ]))
    (List.rev !pre_order);
  (* one group's sweep over its elementary segments, rows forward *)
  let group_rows key =
    let eps = !(Hashtbl.find group_eps key) in
    let segs =
      let pts = IS.elements eps in
      let rec pairs = function
        | x :: (y :: _ as rest) -> (x, y) :: pairs rest
        | _ -> []
      in
      pairs pts
    in
    let group_entries =
      match Hashtbl.find_opt entries key with
      | Some c -> List.rev !c
      | None -> []
    in
    (* entries sorted by begin, ties kept in first-appearance order;
       sweep with an active set *)
    let sorted =
      List.stable_sort
        (fun (b1, _, _) (b2, _, _) -> Int.compare b1 b2)
        group_entries
    in
    let remaining = ref sorted in
    let active = ref [] in
    let buf = ref [] in
    List.iter
      (fun (sb, se) ->
        (* activate entries starting at or before sb, drop finished ones *)
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
        else
          let finals =
            List.mapi
              (fun i (spec : Algebra.agg_spec) ->
                let acc =
                  List.fold_left
                    (fun acc accs -> Agg.combine acc accs.(i))
                    Agg.empty covering
                in
                Agg.final spec.func acc)
              aggs
          in
          buf :=
            Tuple.append key
              (Tuple.make (finals @ [ Value.Int sb; Value.Int se ]))
            :: !buf)
      segs;
    List.rev !buf
  in
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
  Table.make out_schema (List.concat_map group_rows (List.rev !group_order))

(** Per-plan-fingerprint resource ledger: a fixed ring of accounting
    slots.  See the interface for the eviction policy. *)

module Json = Tkr_obs.Json
module Metrics = Tkr_obs.Metrics
module Openmetrics = Tkr_obs.Openmetrics

type slot = {
  slot_hist : Metrics.histogram;  (* total_us distribution; recycled on reuse *)
  mutable s_fp : string;
  mutable s_stmt : string;
  mutable s_count : int;
  mutable s_errors : int;
  mutable s_hits : int;
  mutable s_misses : int;
  mutable s_total_us : int;
  mutable s_queue_us : int;
  mutable s_max_us : int;
  mutable s_rows_out : int;
  mutable s_gc_minor_w : int;
  mutable s_gc_major_w : int;
}

type t = {
  capacity : int;
  slots : slot array;
  index : (string, int) Hashtbl.t;  (* fingerprint -> slot *)
  mutable cursor : int;  (* next slot to assign (ring order) *)
  mutable used : int;
  mutable evictions : int;
  lock : Mutex.t;
}

let locked mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

(* latency buckets up to 10s; the metrics default tops out at 1s, too
   coarse for a p95 over slow temporal joins *)
let latency_bounds =
  [| 100; 500; 1_000; 5_000; 10_000; 50_000; 100_000; 500_000; 1_000_000;
     5_000_000; 10_000_000 |]

let create ?(capacity = 512) () =
  let capacity = max 1 capacity in
  (* a private registry backs the per-slot histograms so they never
     collide with the middleware's exported instruments *)
  let reg = Metrics.create () in
  let fresh i =
    {
      slot_hist =
        Metrics.histogram ~bounds:latency_bounds reg
          (Printf.sprintf "ledger_slot_%d" i);
      s_fp = "";
      s_stmt = "";
      s_count = 0;
      s_errors = 0;
      s_hits = 0;
      s_misses = 0;
      s_total_us = 0;
      s_queue_us = 0;
      s_max_us = 0;
      s_rows_out = 0;
      s_gc_minor_w = 0;
      s_gc_major_w = 0;
    }
  in
  {
    capacity;
    slots = Array.init capacity fresh;
    index = Hashtbl.create 64;
    cursor = 0;
    used = 0;
    evictions = 0;
    lock = Mutex.create ();
  }

let capacity t = t.capacity
let size t = locked t.lock (fun () -> t.used)
let evictions t = locked t.lock (fun () -> t.evictions)

(* claim the slot under the ring cursor for [fp], displacing whatever
   fingerprint held it (ring-buffer semantics: under churn beyond
   capacity the oldest assignment goes first) *)
let assign t fp stmt : slot =
  let i = t.cursor in
  t.cursor <- (t.cursor + 1) mod t.capacity;
  let s = t.slots.(i) in
  if s.s_fp <> "" then begin
    Hashtbl.remove t.index s.s_fp;
    t.evictions <- t.evictions + 1
  end
  else t.used <- t.used + 1;
  Metrics.histogram_reset s.slot_hist;
  s.s_fp <- fp;
  s.s_stmt <- stmt;
  s.s_count <- 0;
  s.s_errors <- 0;
  s.s_hits <- 0;
  s.s_misses <- 0;
  s.s_total_us <- 0;
  s.s_queue_us <- 0;
  s.s_max_us <- 0;
  s.s_rows_out <- 0;
  s.s_gc_minor_w <- 0;
  s.s_gc_major_w <- 0;
  Hashtbl.replace t.index fp i;
  s

let observe t (e : Record.entry) =
  locked t.lock @@ fun () ->
  let s =
    match Hashtbl.find_opt t.index e.e_fp with
    | Some i -> t.slots.(i)
    | None -> assign t e.e_fp e.e_stmt
  in
  s.s_count <- s.s_count + 1;
  if e.e_status <> "ok" then s.s_errors <- s.s_errors + 1;
  (match e.e_disposition with
  | "hit" -> s.s_hits <- s.s_hits + 1
  | "miss" -> s.s_misses <- s.s_misses + 1
  | _ -> ());
  s.s_total_us <- s.s_total_us + e.e_total_us;
  s.s_queue_us <- s.s_queue_us + e.e_queue_us;
  if e.e_total_us > s.s_max_us then s.s_max_us <- e.e_total_us;
  s.s_rows_out <- s.s_rows_out + e.e_rows_out;
  s.s_gc_minor_w <- s.s_gc_minor_w + e.e_gc_minor_w;
  s.s_gc_major_w <- s.s_gc_major_w + e.e_gc_major_w;
  Metrics.observe s.slot_hist e.e_total_us

type row = {
  r_fp : string;
  r_stmt : string;
  r_count : int;
  r_errors : int;
  r_hits : int;
  r_misses : int;
  r_total_us : int;
  r_queue_us : int;
  r_max_us : int;
  r_rows_out : int;
  r_gc_minor_w : int;
  r_gc_major_w : int;
  r_p50_us : int;
  r_p95_us : int;
}

let hit_ratio (r : row) : float =
  let looked = r.r_hits + r.r_misses in
  if looked = 0 then 0.0 else float_of_int r.r_hits /. float_of_int looked

let rows ?top t : row list =
  let all =
    locked t.lock (fun () ->
        Array.to_list t.slots
        |> List.filter_map (fun s ->
               if s.s_fp = "" then None
               else
                 Some
                   {
                     r_fp = s.s_fp;
                     r_stmt = s.s_stmt;
                     r_count = s.s_count;
                     r_errors = s.s_errors;
                     r_hits = s.s_hits;
                     r_misses = s.s_misses;
                     r_total_us = s.s_total_us;
                     r_queue_us = s.s_queue_us;
                     r_max_us = s.s_max_us;
                     r_rows_out = s.s_rows_out;
                     r_gc_minor_w = s.s_gc_minor_w;
                     r_gc_major_w = s.s_gc_major_w;
                     r_p50_us = Metrics.histogram_quantile s.slot_hist 0.50;
                     r_p95_us = Metrics.histogram_quantile s.slot_hist 0.95;
                   }))
  in
  let sorted =
    List.sort (fun a b -> compare b.r_total_us a.r_total_us) all
  in
  match top with
  | Some n -> List.filteri (fun i _ -> i < n) sorted
  | None -> sorted

let row_to_json (r : row) : Json.t =
  Json.Obj
    [
      ("fingerprint", Json.Str r.r_fp);
      ("stmt", Json.Str r.r_stmt);
      ("count", Json.Int r.r_count);
      ("errors", Json.Int r.r_errors);
      ("hits", Json.Int r.r_hits);
      ("misses", Json.Int r.r_misses);
      ("total_us", Json.Int r.r_total_us);
      ("queue_us", Json.Int r.r_queue_us);
      ("max_us", Json.Int r.r_max_us);
      ("rows_out", Json.Int r.r_rows_out);
      ("gc_minor_w", Json.Int r.r_gc_minor_w);
      ("gc_major_w", Json.Int r.r_gc_major_w);
      ("p50_us", Json.Int r.r_p50_us);
      ("p95_us", Json.Int r.r_p95_us);
    ]

let to_json ?top t : Json.t =
  let rows = rows ?top t in
  Json.Obj
    [
      ("capacity", Json.Int t.capacity);
      ("tracked", Json.Int (size t));
      ("evictions", Json.Int (evictions t));
      ("rows", Json.List (List.map row_to_json rows));
    ]

(* one family per resource, labelled by fingerprint; [top] bounds the
   exposition (the ring holds up to [capacity] fingerprints) *)
let openmetrics ?(top = 20) t : string list =
  let rows = rows ~top t in
  let per f = List.map (fun r -> ([ ("fingerprint", r.r_fp) ], f r)) rows in
  if rows = [] then []
  else
    [
      Openmetrics.gauge ~help:"requests accounted per plan fingerprint"
        "tkr_ledger_requests" (per (fun r -> float_of_int r.r_count));
      Openmetrics.gauge ~help:"cumulative wall time per plan fingerprint"
        "tkr_ledger_wall_us" (per (fun r -> float_of_int r.r_total_us));
      Openmetrics.gauge ~help:"cumulative queue wait per plan fingerprint"
        "tkr_ledger_queue_us" (per (fun r -> float_of_int r.r_queue_us));
      Openmetrics.gauge ~help:"rows returned per plan fingerprint"
        "tkr_ledger_rows_out" (per (fun r -> float_of_int r.r_rows_out));
      Openmetrics.gauge ~help:"GC minor words allocated per plan fingerprint"
        "tkr_ledger_gc_minor_words" (per (fun r -> float_of_int r.r_gc_minor_w));
      Openmetrics.gauge ~help:"result-cache hit ratio per plan fingerprint"
        "tkr_ledger_cache_hit_ratio" (per hit_ratio);
      Openmetrics.gauge ~help:"p95 total latency per plan fingerprint"
        "tkr_ledger_latency_p95_us" (per (fun r -> float_of_int r.r_p95_us));
    ]

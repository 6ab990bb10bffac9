(** A lightweight metrics registry: named counters, gauges and
    fixed-bucket histograms.

    Metrics are find-or-create by name, so instrumentation sites don't
    need setup code; reads ([value], [view]) are cheap and never disturb
    the instruments.  A registry is a plain value — the middleware, the
    server and the ledger each keep their own or share one.

    Every operation is safe under concurrent callers (threads or
    domains): counters and gauges are atomics, histograms take a
    per-instrument mutex, and find-or-create is serialized on a
    per-registry mutex — the middleware and the query server share
    registries across their worker threads. *)

type counter = { count : int Atomic.t }

type gauge = { level : int Atomic.t }

type histogram = {
  h_lock : Mutex.t;
  bounds : int array;  (** upper bucket bounds, ascending *)
  buckets : int array;  (** [Array.length bounds + 1] slots; last = overflow *)
  mutable observations : int;
  mutable sum : int;
  mutable lo : int;  (** smallest observation; meaningless while empty *)
  mutable hi : int;  (** largest observation *)
}

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

type t = {
  reg_lock : Mutex.t;
  tbl : (string, metric) Hashtbl.t;
  mutable order : string list;  (** registration order, reversed *)
}

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let create () = { reg_lock = Mutex.create (); tbl = Hashtbl.create 32; order = [] }

let find_or_add t name make =
  locked t.reg_lock @@ fun () ->
  match Hashtbl.find_opt t.tbl name with
  | Some m -> m
  | None ->
      let m = make () in
      Hashtbl.add t.tbl name m;
      t.order <- name :: t.order;
      m

let counter t name : counter =
  match find_or_add t name (fun () -> Counter { count = Atomic.make 0 }) with
  | Counter c -> c
  | _ -> invalid_arg ("metric " ^ name ^ " is not a counter")

let gauge t name : gauge =
  match find_or_add t name (fun () -> Gauge { level = Atomic.make 0 }) with
  | Gauge g -> g
  | _ -> invalid_arg ("metric " ^ name ^ " is not a gauge")

let default_bounds = [| 1; 10; 100; 1_000; 10_000; 100_000; 1_000_000 |]

let histogram ?(bounds = default_bounds) t name : histogram =
  match
    find_or_add t name (fun () ->
        Histogram
          {
            h_lock = Mutex.create ();
            bounds;
            buckets = Array.make (Array.length bounds + 1) 0;
            observations = 0;
            sum = 0;
            lo = 0;
            hi = 0;
          })
  with
  | Histogram h -> h
  | _ -> invalid_arg ("metric " ^ name ^ " is not a histogram")

(* ---- instrument operations ---- *)

let incr (c : counter) = Atomic.incr c.count

let add (c : counter) n = ignore (Atomic.fetch_and_add c.count n)

let value (c : counter) = Atomic.get c.count

let set (g : gauge) v = Atomic.set g.level v

let gauge_add (g : gauge) n = ignore (Atomic.fetch_and_add g.level n)

let gauge_value (g : gauge) = Atomic.get g.level

let observe (h : histogram) v =
  locked h.h_lock @@ fun () ->
  let n = Array.length h.bounds in
  let rec slot i = if i >= n || v <= h.bounds.(i) then i else slot (i + 1) in
  let i = slot 0 in
  h.buckets.(i) <- h.buckets.(i) + 1;
  if h.observations = 0 || v < h.lo then h.lo <- v;
  if h.observations = 0 || v > h.hi then h.hi <- v;
  h.observations <- h.observations + 1;
  h.sum <- h.sum + v

let histogram_observations (h : histogram) =
  locked h.h_lock (fun () -> h.observations)

let histogram_sum (h : histogram) = locked h.h_lock (fun () -> h.sum)

let histogram_buckets (h : histogram) =
  locked h.h_lock (fun () -> Array.copy h.buckets)

let histogram_bounds (h : histogram) = Array.copy h.bounds

(* zero one histogram in place, keeping its bounds: ring-buffer consumers
   (the serve ledger) recycle per-slot histograms when a slot is
   reassigned to a new owner *)
let histogram_reset (h : histogram) =
  locked h.h_lock @@ fun () ->
  Array.fill h.buckets 0 (Array.length h.buckets) 0;
  h.observations <- 0;
  h.sum <- 0;
  h.lo <- 0;
  h.hi <- 0

let histogram_quantile (h : histogram) (q : float) : int =
  let observations, buckets, lo, hi =
    locked h.h_lock (fun () -> (h.observations, Array.copy h.buckets, h.lo, h.hi))
  in
  let nb = Array.length h.bounds in
  if observations = 0 then 0
  else begin
    let q = Float.max 0. (Float.min 1. q) in
    let rank = q *. float_of_int observations in
    let rec go i cumulative =
      if i >= nb then hi (* overflow bucket: its upper bound is the largest observation *)
      else
        let cumulative' = cumulative +. float_of_int buckets.(i) in
        if cumulative' >= rank && buckets.(i) > 0 then
          let b0 = if i = 0 then 0. else float_of_int h.bounds.(i - 1) in
          let b1 = float_of_int h.bounds.(i) in
          let inside = (rank -. cumulative) /. float_of_int buckets.(i) in
          int_of_float (b0 +. ((b1 -. b0) *. inside))
        else go (i + 1) cumulative'
    in
    (* no quantile lies outside the observed range *)
    max lo (min hi (go 0 0.))
  end

let reset t =
  locked t.reg_lock @@ fun () ->
  Hashtbl.iter
    (fun _ -> function
      | Counter c -> Atomic.set c.count 0
      | Gauge g -> Atomic.set g.level 0
      | Histogram h -> histogram_reset h)
    t.tbl

(* ---- export ---- *)

let names t = locked t.reg_lock (fun () -> List.rev t.order)

type view = V_counter of int | V_gauge of int | V_histogram of histogram

let view t name : view option =
  match locked t.reg_lock (fun () -> Hashtbl.find_opt t.tbl name) with
  | Some (Counter c) -> Some (V_counter (Atomic.get c.count))
  | Some (Gauge g) -> Some (V_gauge (Atomic.get g.level))
  | Some (Histogram h) -> Some (V_histogram h)
  | None -> None

(** A lightweight metrics registry: named counters and fixed-bucket
    histograms, find-or-create by name.

    Thread-safe: counters are atomics, histograms take a per-instrument
    mutex and registration is serialized, so one registry can be shared
    by concurrent threads or domains. *)

type counter
type histogram
type t

val create : unit -> t

val counter : t -> string -> counter
(** Find-or-create. @raise Invalid_argument on a kind mismatch. *)

val histogram : ?bounds:int array -> t -> string -> histogram

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

val observe : histogram -> int -> unit
(** Count [v] into the first bucket whose bound is [>= v] (last bucket is
    the overflow). *)

val histogram_observations : histogram -> int
val histogram_sum : histogram -> int
val histogram_buckets : histogram -> int array
val histogram_bounds : histogram -> int array

val histogram_reset : histogram -> unit
(** Zero this histogram's buckets, observations and sum, keeping its
    bounds — for consumers that recycle instruments (e.g. a ring-buffer
    ledger reassigning a slot's histogram to a new owner). *)

val histogram_quantile : histogram -> float -> int
(** The [q]-quantile (q in [0,1]) estimated by linear interpolation
    inside the covering bucket (the Prometheus [histogram_quantile]
    estimator), clamped to the observed minimum and maximum, so a single
    observation reads exactly at every [q].  Ranks in the overflow
    bucket report the largest observation; an empty histogram reports
    0. *)

val reset : t -> unit
(** Zero every instrument, keeping registrations. *)

val names : t -> string list
(** Registration order. *)

(** A read-only snapshot of one instrument, for exporters that must
    dispatch on the metric kind without find-or-create side effects. *)
type view =
  | V_counter of int
  | V_histogram of histogram

val view : t -> string -> view option

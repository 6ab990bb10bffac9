(** Per-plan-fingerprint resource ledger.

    A fixed ring of accounting slots, keyed by plan fingerprint (the
    digest of the normalized plan — the same identity the result cache
    and the stream's entries carry as [fp]).  Each slot accumulates
    cumulative wall and queue time, GC word deltas, rows returned, cache
    hits/misses and a latency histogram (p50/p95 via
    {!Tkr_obs.Metrics.histogram_quantile}).

    When a new fingerprint arrives and its ring position is occupied, the
    previous occupant is displaced (ring-buffer semantics): under churn
    beyond [capacity] the ledger is a recent window, not an exact
    census — {!evictions} says how much was displaced.

    All operations are mutex-serialized; {!observe} is one hash lookup
    and a dozen field bumps, cheap enough to run unconditionally on the
    serve hot path. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] (default 512, min 1) fingerprints tracked at once. *)

val capacity : t -> int

val size : t -> int
(** Fingerprints currently tracked. *)

val evictions : t -> int
(** Fingerprints displaced by ring reuse since creation. *)

val observe : t -> Record.entry -> unit
(** Account one finished request under its plan fingerprint [e_fp].
    [e_stmt] is kept as the exemplar statement of a fresh slot; any
    [e_status] but ["ok"] counts as an error; [e_disposition] feeds the
    hit/miss split (["hit"] / ["miss"]; other dispositions count
    neither). *)

(** One fingerprint's accounting, snapshotted. *)
type row = {
  r_fp : string;
  r_stmt : string;  (** exemplar statement *)
  r_count : int;
  r_errors : int;
  r_hits : int;
  r_misses : int;
  r_total_us : int;  (** cumulative wall (queue + execute) *)
  r_queue_us : int;  (** cumulative queue wait *)
  r_max_us : int;
  r_rows_out : int;
  r_gc_minor_w : int;
  r_gc_major_w : int;
  r_p50_us : int;
  r_p95_us : int;
}

val hit_ratio : row -> float
(** Hits over lookups; [0.0] when the fingerprint never touched the
    cache (never [nan]). *)

val rows : ?top:int -> t -> row list
(** Snapshot, sorted by cumulative wall time descending; [top] keeps the
    first [n]. *)

val row_to_json : row -> Tkr_obs.Json.t

val to_json : ?top:int -> t -> Tkr_obs.Json.t
(** The [LEDGER] scrape payload:
    [{"capacity", "tracked", "evictions", "rows": [...]}]. *)

val openmetrics : ?top:int -> t -> string list
(** Pre-rendered OpenMetrics families ([tkr_ledger_*], labelled by
    fingerprint), for {!Tkr_obs.Openmetrics.of_metrics}'s [extra];
    [top] (default 20) bounds the exposition size.  Empty when nothing
    has been observed. *)

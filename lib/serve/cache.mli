(** Snapshot-aware result cache.

    An entry is keyed on the normalized final plan of a query and guarded
    by its dependency set: the [(table, version)] pairs the plan reads,
    with versions from {!Tkr_engine.Database.version}.  A lookup whose
    current versions differ from the stored ones invalidates that entry —
    any load, INSERT, UPDATE, DELETE or DROP of a dependency bumps its
    version, so a hit proves the cached bytes equal a fresh evaluation
    (table states are immutable per version).

    Entries hold the serialized result payload itself, so replaying a hit
    is byte-identical to re-executing and re-serializing.

    Eviction is LRU under a byte budget.  All operations are mutex-locked
    and safe for concurrent callers. *)

type t

type stats = {
  hits : int;
  misses : int;  (** lookups that found nothing usable (includes stale) *)
  evictions : int;  (** entries dropped for the byte budget *)
  invalidations : int;  (** entries dropped because a dependency moved *)
  entries : int;
  bytes : int;  (** payload bytes currently held *)
  max_bytes : int;
}

val create : max_bytes:int -> t
(** [max_bytes <= 0] disables the cache: every lookup misses and
    {!add} is a no-op. *)

val enabled : t -> bool

type outcome =
  | Hit of string * int
      (** the stored payload and its result cardinality (as passed to
          {!add} — lets hit paths report rows served without reparsing
          the payload) *)
  | Miss  (** no entry for the key, or a stale one *)

val lookup : t -> key:string -> deps:(string * int) list -> outcome
(** [Hit (payload, rows)] iff an entry for [key] exists and its recorded
    dependency versions equal [deps] (compared order-insensitively).
    A stale entry is removed, counted as an invalidation, and reported
    as a [Miss]. *)

val find : t -> key:string -> deps:(string * int) list -> string option
(** [lookup] collapsed to an option (rows dropped). *)

val add :
  t -> ?rows:int -> key:string -> deps:(string * int) list -> string -> unit
(** Insert (or replace) an entry, then evict least-recently-used entries
    until the byte budget holds (counted in {!stats}).  A payload alone
    above the budget is not stored, nor is anything in a disabled
    cache. *)

val invalidate_table : t -> string -> int
(** Drop every entry depending on the table (case-insensitive); returns
    the number dropped.  Version checks already make stale entries
    unreachable — this is for explicit RELOAD-style eviction of the
    bytes. *)

val clear : t -> unit
val stats : t -> stats
val stats_json : t -> Tkr_obs.Json.t

(** The engine catalog: named tables, optionally registered as period
    tables whose trailing two (integer) columns are the period attributes
    [Abegin]/[Aend].  The catalog also tracks the time domain bounds
    [\[tmin, tmax)] used by the rewriter for whole-domain constructions
    (gap rows, constants). *)

open Tkr_relation

type t

val create : ?tmin:int -> ?tmax:int -> unit -> t
val time_bounds : t -> int * int
val set_time_bounds : t -> tmin:int -> tmax:int -> unit

val add_table : t -> string -> Table.t -> unit
(** Register a plain (non-temporal) table.  Names are case-insensitive. *)

val add_period_table :
  t -> string -> ?begin_col:int -> ?end_col:int -> Table.t -> unit
(** Register a period table.  The period columns (by default the last two)
    are moved to the trailing positions; time bounds are widened to cover
    the data.  The given table's column order is the table's declared
    order ({!stored_row}).
    @raise Invalid_argument on non-integer periods. *)

val find : t -> string -> Table.t
(** @raise Schema.Unknown for unregistered names. *)

val is_period : t -> string -> bool
val mem : t -> string -> bool
val schema_of : t -> string -> Schema.t

val data_schema_of : t -> string -> Schema.t
(** The schema a snapshot query sees: period columns hidden. *)

val stored_row : t -> string -> Value.t array -> Tuple.t
(** [stored_row db name values]: a row given in [name]'s declared column
    order (the order of the table passed to {!add_table} or
    {!add_period_table}), in stored order — period columns last.  The
    permutation belongs to the catalog entry, so every client of the
    database stores an INSERT the same way, and DROP forgets it. *)

val append_rows : t -> string -> Tuple.t list -> unit
(** INSERT: rows must follow the stored column order.  Installs the
    successor of the current table value ({!Table.with_rows}). *)

val set_rows : t -> string -> Tuple.t array -> unit
(** Replace all rows (UPDATE/DELETE), keeping schema and registration.
    Installs the successor of the current table value
    ({!Table.with_rows}). *)

val remove_table : t -> string -> unit
val names : t -> string list

val version : t -> string -> int
(** Per-table version counter: 0 for names never loaded, bumped by every
    {!add_table}, {!add_period_table}, {!append_rows}, {!set_rows} and
    {!remove_table}.  Monotone over the database's lifetime (DROP bumps
    but never resets), so a (name, version) pair identifies one immutable
    table state — the invalidation key of the snapshot-aware result
    cache. *)

val generation : t -> int
(** Whole-catalog mutation counter: bumped alongside every table version
    and by {!set_time_bounds}.  Monotone; while it is unchanged the table
    set, all schemas and the time bounds are unchanged, so plans prepared
    against this catalog state are still valid — the staleness signal for
    prepared-statement caches. *)

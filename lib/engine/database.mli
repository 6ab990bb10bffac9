(** The engine catalog: named tables, optionally registered as period
    tables whose trailing two (integer) columns are the period attributes
    [Abegin]/[Aend].  The catalog also tracks the time domain bounds
    [\[tmin, tmax)] used by the rewriter for whole-domain constructions
    (gap rows, constants).

    A {!t} is a handle on an immutable catalog value.  Reads see the
    handle's current value; a write builds the successor value and
    publishes it with one atomic store, so it is all or nothing: a write
    that raises leaves the catalog as it was.  Writers serialize on one
    mutex per catalog and never wait for readers.  A reader that needs
    one state across several reads takes a {!pin}. *)

open Tkr_relation

type t

val create : ?tmin:int -> ?tmax:int -> unit -> t
(** A live handle on an empty catalog. *)

val pin : t -> t
(** A read-only handle on the value current now: later writes through
    other handles do not reach it, and a write through it raises
    [Invalid_argument] and changes nothing.  Pinning a pinned handle
    returns it.  A pinned handle holds its tables alive; drop it when
    the statement that took it is done. *)

val serialized : t -> (t -> 'a) -> 'a
(** [serialized db f] runs [f w] holding [db]'s writer mutex, so no
    other write runs between the reads and the writes [f] makes through
    [w] (a read-modify-write, such as an UPDATE, never loses a
    concurrent write).  Each write through [w] publishes at once.  [w]
    must not escape [f]; nested [serialized] calls on [w] just run.
    @raise Invalid_argument on a pinned handle. *)

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
    successor of the current table value ({!Table.successor}): the old
    rows are kept in place and the new rows are fresh, so the next index
    read answers from the old value's images plus the new rows, and a
    full image, when one is needed, is derived from them.
    @raise Invalid_argument when a row of a period table has a
    non-integer period. *)

val set_rows : t -> string -> src:int array -> Tuple.t array -> unit
(** Replace all rows (UPDATE/DELETE), keeping schema and registration.
    Installs the successor of the current table value
    ({!Table.successor}); [src.(i)] names the row of the current value
    that new row [i] copies unchanged, or is negative for a fresh row.
    @raise Invalid_argument when [src] does not fit (see
    {!Table.successor}). *)

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
    prepared-statement caches.  A write that raises moves nothing. *)

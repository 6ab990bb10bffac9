(** Physical multiset tables: rows with duplicates, the engine's
    representation of SQL (period) relations at the implementation level
    (Section 8). *)

open Tkr_relation

type t
(** An immutable table value.  It owns its three derived images, the
    columnar image ({!columnar}), the interval index ({!index}) and the
    statistics ({!column_stats}, {!mean_period}): each is made on first
    use and kept for the value's lifetime.  A mutation never changes a
    value; the database installs a successor ({!successor}) that keeps
    its predecessor's built columnar image and index as a base, with a
    map from its rows to the base's.  Index reads ({!probe}) answer from
    the base plus that delta until the delta outgrows a fixed fraction
    of the base; then they fold it, deriving the value's own columnar
    image and index, which become the next successor's base.
    Statistics start empty on every value. *)

val make : Schema.t -> Tuple.t list -> t
val of_array : Schema.t -> Tuple.t array -> t
val empty : Schema.t -> t
val schema : t -> Schema.t
val rows : t -> Tuple.t array
val cardinality : t -> int
val to_list : t -> Tuple.t list

val to_nrel : t -> Tkr_semiring.Nat.t Krel.t
(** Multiset view: tuple → multiplicity. *)

val of_nrel : Tkr_semiring.Nat.t Krel.t -> t
(** Expand multiplicities into duplicate rows. *)

val equal_bag : t -> t -> bool
(** Bag equality: same rows with same multiplicities; order-insensitive. *)

val sorted_rows : t -> Tuple.t array
(** A sorted copy, for deterministic output. *)

val successor : t -> rows:Tuple.t array -> prefix:int -> src:int array -> t
(** [successor t ~rows ~prefix ~src]: the value of [t]'s table after DML
    — same schema, the given rows.  The rows below [prefix] are [t]'s
    rows in place; row [prefix + k] copies row [src.(k)] of [t]
    unchanged, or is fresh where [src.(k) < 0] (an INSERT passes [t]'s
    cardinality and one fresh entry per new row).  The successor keeps
    [t]'s built columnar image and index (never [t] itself) as its base.
    When [t] has no index of its own (it was never read, or read only
    through its delta) but its base has one, the successor keeps that
    base instead, with the row maps composed, so a run of writes shares
    one base until a read folds it; but when [t] has its own columnar
    image (a scan read it) and the composed delta is past the fold
    bound ({!probe}), that image is the successor's base.  The base
    lives until the successor's index is filled (or its columnar image,
    when the base has no index).  The successor holds its map to the
    base as runs of rows (a write adds a few, however many rows it
    leaves in place), so writes compose maps and delta reads walk them
    without an O(n) term; a fold flattens the runs back into this
    [prefix]/[src] form, the one {!Batch.derive} and
    {!Tkr_idx.Interval.derive} read.  Building the successor's index, derived or not,
    counts as a rebuild ({!Tkr_idx.Stats}) when [t] or any value it
    succeeded had its index built.  A value made any other way (a fresh
    CREATE or load, including DROP then CREATE) starts without a base
    or that history.
    @raise Invalid_argument unless [prefix + Array.length src] is the
    number of rows, [prefix <= cardinality t], and [src] increases over
    its entries [>= 0], which lie in [\[prefix, cardinality t)]. *)

val columnar : t -> Batch.t
(** The columnar image, made on first use: derived from the base when
    the value has one, else built from the rows; either way equal to
    [Batch.of_rows (schema t) (rows t)].  Concurrent first uses may both
    make it; they make the same image and the last write wins. *)

val of_batch : Batch.t -> t
(** The logical rows of a batch as a fresh table. *)

val index : t -> Tkr_idx.Interval.t option
(** The interval index over the trailing two columns of the columnar
    image ([Abegin], [Aend] of a period table), made on first use and
    equal to a fresh {!Tkr_idx.Interval.build}: derived from the base's
    index when it has one (a reader that finds the base already dropped
    builds from the image), else built.  Each is counted in
    {!Tkr_idx.Stats} as a build.  [None] (also kept) unless both
    columns are null-free [int] columns.  Callers check that the table is
    a period table ({!Idx_cache.get}). *)

type probe = {
  view : Batch.t;
      (** the candidate rows, in ascending row order: a selection over
          the columnar image, or a dense image of just the candidates *)
  candidates : int;  (** how many *)
  delta : int option;
      (** [Some n]: answered through the delta, scanning [n] fresh rows *)
}

val fold_divisor : int
(** The fold bound's denominator: a constant, chosen by measurement
    (see table.ml). *)

val probe :
  ?need:int list ->
  t ->
  b_hi:Tkr_idx.Interval.bound ->
  e_lo:Tkr_idx.Interval.bound ->
  probe option
(** The rows an {!index} probe ({!Tkr_idx.Interval.probe}) returns, with
    their cells.  A value whose own index is not built, and whose base
    has one, answers from the base without materializing anything while
    its delta (fresh rows plus dropped base rows) is at most
    [1 / fold_divisor] of the base's rows: it probes the base index, renames the
    candidates through the row map, merges in the fresh rows whose
    periods pass the bounds, and gathers only those rows, and of them
    only the columns in [need] (default: all); the others are
    {!Batch.placeholder}s, which the caller must not read.  Past that
    fraction, or without such a base, it probes {!index} over {!columnar},
    filling both (a fold).  Either way the rows and their order are the
    same.  [None] when the value has no index.  Callers check that the
    table is a period table. *)

(** {2 Statistics}

    The optimizer's inputs, derived from the columnar image.  The
    statistics slot is made on the first request; within it each
    column's entry, and the mean period length, is computed on its own
    first request. *)

type column_stats = {
  count : int;  (** rows *)
  distinct : int;  (** distinct non-NULL values *)
  nulls : int;  (** NULL values *)
  min : Value.t option;  (** smallest non-NULL value ([Value.compare]) *)
  max : Value.t option;  (** largest non-NULL value *)
}

val column_stats : t -> int -> column_stats
(** The statistics of column [i]. *)

val mean_period : t -> float option
(** The mean of [Aend - Abegin] over the rows, read from the trailing two
    columns as {!index} reads them: [None] unless both are null-free
    [int] columns and the table has rows.  Callers check that the table
    is a period table. *)

val has_stats : t -> bool
(** Whether this value's statistics slot has been made. *)

val pp : Format.formatter -> t -> unit
(** Sorted, for deterministic test failure output. *)

val to_text : ?max_rows:int -> t -> string
(** Aligned text rendering; preserves row order. *)

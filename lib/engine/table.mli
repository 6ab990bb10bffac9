(** Physical multiset tables: rows with duplicates, the engine's
    representation of SQL (period) relations at the implementation level
    (Section 8). *)

open Tkr_relation

type t
(** An immutable table value.  It owns its three derived images, the
    columnar image ({!columnar}), the interval index ({!index}) and the
    statistics ({!column_stats}, {!mean_period}): each is built on first
    use and kept for the value's lifetime.  A mutation never changes a
    value; the database installs a successor ({!with_rows}) whose images
    start empty. *)

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

val with_rows : t -> Tuple.t array -> t
(** [with_rows t rows]: the successor of [t] after DML — same schema,
    the given rows, empty image slots.  Building the successor's index
    counts as a rebuild ({!Tkr_idx.Stats}) when [t] or any value it
    succeeded had its index built.  A value made any other way (a fresh
    CREATE or load, including DROP then CREATE) starts without that
    history. *)

val columnar : t -> Batch.t
(** The columnar image, built on first use.  Concurrent first uses may
    both build it; they build the same image and the last write wins. *)

val of_batch : Batch.t -> t
(** The logical rows of a batch as a fresh table. *)

val index : t -> Tkr_idx.Interval.t option
(** The interval index over the trailing two columns of the columnar
    image ([Abegin], [Aend] of a period table), built on first use; each
    build is counted in {!Tkr_idx.Stats}.  [None] (also kept) unless both
    columns are null-free [int] columns.  Callers check that the table is
    a period table ({!Idx_cache.get}). *)

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

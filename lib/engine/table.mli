(** Physical multiset tables: rows with duplicates, the engine's
    representation of SQL (period) relations at the implementation level
    (Section 8). *)

open Tkr_relation

type t
(** An immutable table value: an ordered array of segments, which hold
    rows that never change and are shared between values, and one
    deletion bitmap per segment.  Its rows, in row order, are the
    segments' rows that are not deleted, segment by segment.  A write
    ({!write}) makes a successor: it sets the deleted rows' bits and
    appends the new rows as a segment, merging trailing segments by a
    rule on their sizes ({!merge_ratio}, {!tail_rows}), so INSERT and
    DELETE keep every other row in place and an UPDATE's new rows come
    last.  A segment is made from rows ({!make}, {!of_array}, {!write})
    or from columns ({!of_batch}), and makes the other form, and its
    interval index, on first use.  The whole-value views ({!rows},
    {!columnar}, {!index}, the statistics) are made on first use too, at
    most once per value, and are not shared with successors. *)

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

val write : t -> deleted:int array -> added:Tuple.t array -> t
(** [write t ~deleted ~added]: the value of [t]'s table after DML —
    same schema; the rows of [t] at the positions [deleted] (in
    {!rows} order, ascending) are gone, the others keep their order,
    and [added] follows them.  Shares [t]'s segments, and copies only
    the deletion bitmaps of segments that lose rows and the trailing
    segments that merge.  Building an index for the successor
    counts as a rebuild ({!Tkr_idx.Stats}) when [t] or any value it
    succeeded had an index built.
    @raise Invalid_argument unless [deleted] ascends strictly within
    [\[0, cardinality t)]. *)

val iteri : (int -> Tuple.t -> unit) -> t -> unit
(** [iteri f t] calls [f i row] for each row in row order, [i] its
    position, without making {!rows}. *)

val merge_ratio : int
val tail_rows : int
val tail_divisor : int
(** The merge rule's constants (see table.ml).  On each append, trailing
    segments merge while the one before the last has fewer than
    [tail_rows] rows or at most [merge_ratio] times the last's, except
    that a first segment below [tail_rows] rows keeps a last one of at
    most [1 / tail_divisor] its size; so a value of [n] rows (deleted
    ones included) has at most
    [max 2 (log_merge_ratio (n / tail_rows) + 2)] segments. *)

val layout : t -> (int * int) array
(** Each segment's rows and rows not deleted, in order. *)

val columnar : t -> Batch.t
(** The columnar image of {!rows}: a batch without a selection whose
    logical rows equal {!rows}, value by value ([Batch.to_rows
    (columnar t)] and [rows t] are equal arrays of equal values).  A
    value made by {!of_batch} returns that batch, compacted; any other
    makes [Batch.of_rows (schema t) (rows t)] on first use.  The
    column representations may differ between the two (a column-made
    value may keep a column boxed that {!Batch.of_rows} would type). *)

val of_batch : Batch.t -> t
(** The logical rows of a batch as a table of one segment, with the
    batch's schema.  The batch ({!Batch.compact}ed if it has a
    selection) is the segment's columnar image; its rows are boxed on
    first use ({!rows}, {!iteri}, {!to_text}, ...), and the image is
    kept after that. *)

val index : t -> Tkr_idx.Interval.t option
(** The interval index over the trailing two columns of {!columnar}
    ([Abegin], [Aend] of a period table), made on first use by
    {!Tkr_idx.Interval.build} and counted in {!Tkr_idx.Stats} as a
    build.  [None] (also kept) unless both columns are null-free [int]
    columns.  Callers check that the table is a period table
    ({!Idx_cache.get}). *)

type probe = {
  view : Batch.t;
      (** the candidate rows, in row order: a selection over one image,
          or a dense image of just the candidates *)
  candidates : int;  (** how many *)
  segments : int;  (** segments read: 1 over a whole index *)
  scanned : int;  (** rows of an unindexed tail scanned *)
}

val probe :
  ?need:int list ->
  t ->
  b_hi:Tkr_idx.Interval.bound ->
  e_lo:Tkr_idx.Interval.bound ->
  probe option
(** The rows an {!index} probe ({!Tkr_idx.Interval.probe}) returns, in
    the same order, with their cells.  A value whose whole index is
    built, or that is one segment without deletions, probes that one
    index.  Any other probes each segment's index (made on first use),
    except that a last segment below {!tail_rows} rows is scanned with
    {!Tkr_idx.Interval.admits}; deleted rows are skipped.  Candidates of
    one segment select its image; candidates of several are gathered,
    only the columns in [need] (default: all); the others are
    {!Batch.placeholder}s, which the caller must not read.  [None] when
    the value has no index.  Callers check that the table is a period
    table. *)

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

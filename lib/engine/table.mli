(** Physical multiset tables: rows with duplicates, the engine's
    representation of SQL (period) relations at the implementation level
    (Section 8). *)

open Tkr_relation

type t
(** An immutable table value: an ordered array of segments, which hold
    rows that never change and are shared between values, and one
    deletion bitmap per segment.  Its rows, in row order, are the
    segments' rows that are not deleted, segment by segment.  A write
    ({!write}) makes a successor: it sets the deleted rows' bits,
    copying only the bitmap's chunks of 4,096 rows that change, and
    appends the new rows as a segment, merging trailing segments by a
    rule on their sizes ({!merge_ratio}, {!tail_rows}), so INSERT and
    DELETE keep every other row in place and an UPDATE's new rows come
    last.

    A segment is stored once, as columns: a {!Batch.t} without a
    selection, its image.  Rows written ({!make}, {!of_array},
    {!write}) are stored as {!Batch.of_rows} stores them, a batch
    ({!of_batch}) as it is, and a merge or a compaction appends the
    parts' live rows' columns.  A segment makes its interval index and
    statistics on first use.  The row reads ({!rows}, {!to_list},
    {!iteri}, {!where}, {!to_text}) box rows from the images on each
    call and keep none.

    A value holds nothing beside its segments.  The whole-value reads
    ({!rows}, {!columnar}, {!index}, the statistics, and so every scan)
    read a value of one segment without deletions from that segment.
    Any other value they compact, once: its live rows, in row order,
    become one new segment that replaces its segments, and the
    successors {!write} makes from then on share it.  Compacting copies
    the value's columns, in O(n), and costs one index build, also
    O(n), at the next index read ({!probe}), which the replaced
    segments' indexes would have answered. *)

val make : Schema.t -> Tuple.t list -> t
val of_array : Schema.t -> Tuple.t array -> t
val empty : Schema.t -> t
val schema : t -> Schema.t
val rows : t -> Tuple.t array
(** The rows in row order, boxed from {!columnar} on each call. *)

val cardinality : t -> int
val to_list : t -> Tuple.t list

val to_nrel : t -> Tkr_semiring.Nat.t Krel.t
(** Multiset view: tuple → multiplicity. *)

val of_nrel : Tkr_semiring.Nat.t Krel.t -> t
(** Expand multiplicities into duplicate rows. *)

val equal_bag : t -> t -> bool
(** Bag equality: same rows with same multiplicities; order-insensitive. *)

val write : t -> deleted:int array -> added:Tuple.t array -> t
(** [write t ~deleted ~added]: the value of [t]'s table after DML —
    same schema; the rows of [t] at the positions [deleted] (in
    {!rows} order, ascending) are gone, the others keep their order,
    and [added] follows them.  Shares [t]'s segments, and copies only
    the changed chunks of the deletion bitmaps of segments that lose
    rows, and the trailing segments that merge.  Building an index for
    the successor counts as a rebuild ({!Tkr_idx.Stats}) when [t] or
    any value it succeeded had an index built.
    @raise Invalid_argument unless [deleted] ascends strictly within
    [\[0, cardinality t)]. *)

val where :
  filter:(Batch.t -> Expr.t -> int array) ->
  (int -> Tuple.t -> unit) ->
  t ->
  Expr.t ->
  unit
(** [where ~filter f t pred] calls [f i row] for each row of [t] on
    which the resolved predicate [pred] holds ({!Expr.holds}), in row
    order, [i] its position (as {!write} takes it) and [row] the row,
    boxed from its segment's image, without compacting [t].
    [filter b pred] must return the physical rows of [b]'s selection
    on which [pred] holds, in order
    ([Tkr_vec.Veval.filter]).  Segment by segment: where no row of the
    segment can make [pred] raise (judged from its image's column
    representations), an [int] column's equality with an [int] literal
    reads its candidates from the segment's key order of that column
    (its non-NULL rows sorted by value, made on first use and kept in
    the segment's statistics slot) and
    [filter]s them by the other conjuncts, and any other predicate is
    [filter]ed over the segment's image; deleted rows are dropped.
    Where a row could raise, the segment's rows are evaluated one by
    one, so [where] raises what [Expr.holds] raises on the first row
    that does, after calling [f] on the matches before it. *)

val iteri : (int -> Tuple.t -> unit) -> t -> unit
(** [iteri f t] calls [f i row] for each row in row order, [i] its
    position, boxing one row at a time from the segments' images,
    without compacting [t]. *)

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
(** The image of the value's one segment, which it compacts to first: a
    batch without a selection whose logical rows are the value's rows
    ([rows t] is [Batch.to_rows (columnar t)]).  Of rows written as
    rows, its columns are those {!Batch.of_rows} makes from them; a
    batch given to {!of_batch} keeps its columns (it may keep a column
    boxed that {!Batch.of_rows} would type). *)

val of_batch : Batch.t -> t
(** The logical rows of a batch as a table of one segment, with the
    batch's schema: the batch, {!Batch.compact}ed if it has a
    selection, is the segment's image. *)

val index : t -> Tkr_idx.Interval.t option
(** The interval index over the trailing two columns of {!columnar}
    ([Abegin], [Aend] of a period table): the index of the value's one
    segment, which it compacts to first, made on first use by
    {!Tkr_idx.Interval.build} and counted in {!Tkr_idx.Stats} as a
    build.  [None] (also kept) unless both columns are null-free [int]
    columns.  Callers check that the table is a period table
    ({!Idx_cache.get}). *)

type probe = {
  view : Batch.t;
      (** the candidate rows, in row order: a selection over one image,
          or a dense image of just the candidates *)
  candidates : int;  (** how many *)
  segments : int;  (** segments read: 1 for a value of one segment *)
  scanned : int;  (** rows of an unindexed tail scanned *)
}

val probe :
  ?need:int list ->
  t ->
  b_hi:Tkr_idx.Interval.bound ->
  e_lo:Tkr_idx.Interval.bound ->
  probe option
(** The rows an {!index} probe ({!Tkr_idx.Interval.probe}) returns, in
    the same order, with their cells, read from the value's segments as
    they are, without compacting it: each segment's index is probed
    (made on first use), except that a last segment below {!tail_rows}
    rows, after a first, is scanned with {!Tkr_idx.Interval.admits};
    deleted rows are skipped.  Candidates of one segment select its
    image; candidates of several are gathered, only the columns in
    [need] (default: all); the others are {!Batch.placeholder}s, which
    the caller must not read.  [None] when the value has no index.
    Callers check that the table is a period table. *)

(** {2 Statistics}

    The optimizer's inputs, derived from the segment's image.  They
    compact the value like the other whole-value reads and belong to its
    one segment: the segment's statistics slot is made on the first
    request, and within it each column's entry, and the mean period
    length, is computed on its own first request.  Racing first requests
    return the value the first to publish stored. *)

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
(** Whether this value is one segment without deletions whose
    statistics slot has been made (also by a {!where} that read a key
    order of it). *)

val pp : Format.formatter -> t -> unit
(** Sorted, for deterministic test failure output. *)

val to_text : ?max_rows:int -> t -> string
(** Aligned text rendering; preserves row order. *)

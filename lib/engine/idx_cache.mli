(** Per-table temporal interval indexes, by catalog name.  The index
    lives on the table value ({!Table.index}): made on first use, and
    gone with the value when DML installs a successor, which reads
    through it until its delta is folded into an index of its own. *)

val get : Database.t -> string -> Tkr_idx.Interval.t option
(** The index over [name]'s [(Abegin, Aend)] columns, building or
    deriving it if the current table value has none yet.  It always
    materializes: a value that index reads have so far answered through
    its delta ({!Table.probe}) gets its own columnar image and index
    here.  [None] when [name] is not
    registered as a period table (or stores malformed endpoints).  Raises
    [Schema.Unknown] like {!Database.find} when the table does not
    exist. *)

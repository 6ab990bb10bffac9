(** Per-table temporal interval indexes, by catalog name.  The index
    lives on the table value ({!Table.index}): made on first use, and
    gone with the value when DML installs a successor. *)

val get : Database.t -> string -> Tkr_idx.Interval.t option
(** The index over [name]'s [(Abegin, Aend)] columns, over the whole
    current table value, which it compacts to one segment first
    ({!Table.index}), building it if that segment has none yet.  Index
    reads ({!Table.probe}) of the value then probe this index alone.
    [None] when [name] is not registered as a period table (or stores
    malformed endpoints).
    Raises [Schema.Unknown] like {!Database.find} when the table does
    not exist. *)

(** Per-table temporal interval indexes, by catalog name.  The index
    lives on the table value ({!Table.index}): built on first use, and
    gone with the value when DML installs a successor. *)

val get : Database.t -> string -> Tkr_idx.Interval.t option
(** The index over [name]'s [(Abegin, Aend)] columns, building it if the
    current table value has none yet.  [None] when [name] is not
    registered as a period table (or stores malformed endpoints).  Raises
    [Schema.Unknown] like {!Database.find} when the table does not
    exist. *)

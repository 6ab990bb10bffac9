(** Per-table temporal interval indexes, by catalog name: the index is
    the index of the one segment a table value compacts to
    ({!Table.index}). *)

let get (db : Database.t) (name : string) : Tkr_idx.Interval.t option =
  if Database.is_period db name then Table.index (Database.find db name)
  else None

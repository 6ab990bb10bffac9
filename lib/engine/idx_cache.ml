(** Per-table temporal interval indexes, by catalog name: the index is
    the whole-value index a table value owns ({!Table.index}). *)

let get (db : Database.t) (name : string) : Tkr_idx.Interval.t option =
  if Database.is_period db name then Table.index (Database.find db name)
  else None

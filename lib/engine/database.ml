(** The engine catalog: named tables, optionally registered as period
    tables.

    Period tables follow the encoding convention of the rewriter: the two
    period attributes are stored as the {e last two} columns ([Abegin],
    [Aend], integer-typed).  {!add_period_table} reorders columns on
    registration if the caller stores the period elsewhere. *)

open Tkr_relation

type entry = {
  table : Table.t;
  is_period : bool;
  order : int array;
      (** declared -> stored column permutation: stored column [j] is
          declared column [order.(j)] (the identity unless registration
          moved the period columns last) *)
}

type t = {
  tables : (string, entry) Hashtbl.t;
  versions : (string, int) Hashtbl.t;
      (** per-table version counters, monotone over the database's
          lifetime (never reset by DROP, so re-creating a table does not
          resurrect stale cache entries); bumped by every load/update —
          the invalidation signal of the snapshot-aware result cache *)
  mutable generation : int;
      (** whole-catalog mutation counter: bumped with every table version
          and on time-bound changes — a plan prepared at generation [g] is
          guaranteed valid while the generation stays [g] (schemas, table
          set and [tmin]/[tmax] are all unchanged) *)
  mutable tmin : int;
  mutable tmax : int;
}

let create ?(tmin = 0) ?(tmax = 1) () =
  {
    tables = Hashtbl.create 16;
    versions = Hashtbl.create 16;
    generation = 0;
    tmin;
    tmax;
  }

let version db name =
  Option.value ~default:0
    (Hashtbl.find_opt db.versions (String.lowercase_ascii name))

let generation db = db.generation

let bump_version db name =
  let key = String.lowercase_ascii name in
  db.generation <- db.generation + 1;
  Hashtbl.replace db.versions key (version db key + 1)

let time_bounds db = (db.tmin, db.tmax)
let set_time_bounds db ~tmin ~tmax =
  db.generation <- db.generation + 1;
  db.tmin <- tmin;
  db.tmax <- tmax

let install db name entry =
  bump_version db name;
  Hashtbl.replace db.tables (String.lowercase_ascii name) entry

(* widen [tmin, tmax) to cover the periods (trailing two columns) of
   [rows]; [fn] names the caller in the error.  All or nothing: a
   rejected row leaves the bounds as they were. *)
let widen_bounds db fn (rows : Tuple.t array) =
  let lo = ref db.tmin and hi = ref db.tmax in
  Array.iter
    (fun row ->
      let n = Tuple.arity row in
      match (Tuple.get row (n - 2), Tuple.get row (n - 1)) with
      | Value.Int b, Value.Int e ->
          if b < !lo then lo := b;
          if e > !hi then hi := e
      | _ -> invalid_arg (fn ^ ": non-integer period"))
    rows;
  db.tmin <- !lo;
  db.tmax <- !hi

(** Register a plain (non-temporal) table. *)
let add_table db name table =
  install db name
    {
      table;
      is_period = false;
      order = Array.init (Schema.arity (Table.schema table)) Fun.id;
    }

(** Register a period table.  [begin_col]/[end_col] give the current
    positions of the period attributes; the stored table moves them to the
    last two columns.  The database's time bounds are widened to cover the
    data. *)
let add_period_table db name ?begin_col ?end_col table =
  let schema = Table.schema table in
  let n = Schema.arity schema in
  let bc = Option.value begin_col ~default:(n - 2) in
  let ec = Option.value end_col ~default:(n - 1) in
  let data_cols =
    List.filter (fun i -> i <> bc && i <> ec) (List.init n Fun.id)
  in
  let order = data_cols @ [ bc; ec ] in
  let reordered =
    if order = List.init n Fun.id then table
    else
      Table.of_array
        (Schema.project schema order)
        (Array.map (Tuple.project order) (Table.rows table))
  in
  widen_bounds db "Database.add_period_table" (Table.rows reordered);
  install db name
    { table = reordered; is_period = true; order = Array.of_list order }

let find_entry db name =
  match Hashtbl.find_opt db.tables (String.lowercase_ascii name) with
  | Some e -> e
  | None -> raise (Schema.Unknown name)

let find db name = (find_entry db name).table
let is_period db name = (find_entry db name).is_period
let mem db name = Hashtbl.mem db.tables (String.lowercase_ascii name)
let schema_of db name = Table.schema (find db name)

(** Schema without the trailing period columns (what a snapshot query over
    this table sees). *)
let data_schema_of db name =
  let e = find_entry db name in
  let s = Table.schema e.table in
  if e.is_period then
    Schema.project s (List.init (Schema.arity s - 2) Fun.id)
  else s

(** A row in the table's declared column order, in stored order. *)
let stored_row db name (values : Value.t array) : Tuple.t =
  let e = find_entry db name in
  Tuple.of_array (Array.map (fun i -> values.(i)) e.order)

(** Append rows to an existing table (INSERT).  Period tables get their
    time bounds widened; rows must already follow the stored column order. *)
let append_rows db name (rows : Tuple.t list) =
  let e = find_entry db name in
  let rows = Array.of_list rows in
  if e.is_period then widen_bounds db "Database.append_rows" rows;
  install db name
    {
      e with
      table =
        Table.successor e.table
          ~rows:(Array.append (Table.rows e.table) rows)
          ~prefix:(Table.cardinality e.table)
          ~src:(Array.make (Array.length rows) (-1));
    }

(** Replace a table's rows wholesale (UPDATE/DELETE), keeping its schema
    and period registration; period tables widen the time bounds. *)
let set_rows db name ~src (rows : Tuple.t array) =
  let e = find_entry db name in
  if e.is_period then widen_bounds db "Database.set_rows" rows;
  install db name
    { e with table = Table.successor e.table ~rows ~prefix:0 ~src }

let remove_table db name =
  bump_version db name;
  Hashtbl.remove db.tables (String.lowercase_ascii name)

let names db =
  Hashtbl.fold (fun n _ acc -> n :: acc) db.tables [] |> List.sort String.compare

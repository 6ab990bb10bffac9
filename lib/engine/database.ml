(** The engine catalog: named tables, optionally registered as period
    tables.

    Period tables follow the encoding convention of the rewriter: the two
    period attributes are stored as the {e last two} columns ([Abegin],
    [Aend], integer-typed).  {!add_period_table} reorders columns on
    registration if the caller stores the period elsewhere. *)

open Tkr_relation
module Names = Map.Make (String)

type entry = {
  table : Table.t;
  is_period : bool;
  order : int array;
      (** declared -> stored column permutation: stored column [j] is
          declared column [order.(j)] (the identity unless registration
          moved the period columns last) *)
}

(* One catalog state.  Never mutated: a write builds the successor value
   and publishes it, so a reader holding a value sees one state for as
   long as it holds it. *)
type value = {
  tables : entry Names.t;
  versions : int Names.t;
      (** per-table version counters, monotone over the database's
          lifetime (never reset by DROP, so re-creating a table does not
          resurrect stale cache entries); bumped by every load/update —
          the invalidation signal of the snapshot-aware result cache *)
  generation : int;
      (** whole-catalog mutation counter: bumped with every table version
          and on time-bound changes — a plan prepared at generation [g] is
          valid for every value of generation [g] (rows, schemas, table
          set and [tmin]/[tmax] are all unchanged) *)
  schema_epoch : int;
      (** bumped by DDL and by every change of [tmin]/[tmax], not by DML
          that stays inside them: while it holds, the table set, schemas
          and bounds are unchanged and only rows differ *)
  tmin : int;
  tmax : int;
}

(* a handle's writes: the live handle takes the writer mutex for each,
   one inside {!serialized} holds it, a pinned one may not write *)
type access = Shared of Mutex.t | Held | Pinned
type t = { cell : value Atomic.t; access : access }

let create ?(tmin = 0) ?(tmax = 1) () =
  let v =
    {
      tables = Names.empty;
      versions = Names.empty;
      generation = 0;
      schema_epoch = 0;
      tmin;
      tmax;
    }
  in
  { cell = Atomic.make v; access = Shared (Mutex.create ()) }

let key = String.lowercase_ascii

let pin db =
  match db.access with
  | Pinned -> db
  | Shared _ | Held -> { cell = Atomic.make (Atomic.get db.cell); access = Pinned }

let serialized db f =
  match db.access with
  | Shared mu -> Mutex.protect mu (fun () -> f { db with access = Held })
  | Held -> f db
  | Pinned -> invalid_arg "Database: write through a pinned snapshot"

(* publish [f]'s successor of the current value; a raise publishes nothing *)
let write db f = serialized db (fun db -> Atomic.set db.cell (f (Atomic.get db.cell)))

let version_in v name =
  Option.value ~default:0 (Names.find_opt (key name) v.versions)

let version db name = version_in (Atomic.get db.cell) name
let generation db = (Atomic.get db.cell).generation
let schema_epoch db = (Atomic.get db.cell).schema_epoch

let time_bounds db =
  let v = Atomic.get db.cell in
  (v.tmin, v.tmax)

let set_time_bounds db ~tmin ~tmax =
  write db (fun v ->
      {
        v with
        generation = v.generation + 1;
        schema_epoch = v.schema_epoch + 1;
        tmin;
        tmax;
      })

(* [v] with [name]'s version and the generation bumped and [name] bound
   to [entry], or unbound; [ddl] moves the schema epoch too *)
let install ~ddl v name (entry : entry option) =
  let k = key name in
  {
    v with
    tables = Names.update k (fun _ -> entry) v.tables;
    versions = Names.add k (version_in v k + 1) v.versions;
    generation = v.generation + 1;
    schema_epoch = (if ddl then v.schema_epoch + 1 else v.schema_epoch);
  }

(* [v] with [tmin, tmax) widened to [lo, hi) *)
let widen v lo hi =
  if lo = v.tmin && hi = v.tmax then v
  else { v with tmin = lo; tmax = hi; schema_epoch = v.schema_epoch + 1 }

(* [v] with [tmin, tmax) widened to cover the periods (trailing two
   columns) of [rows]; [fn] names the caller in the error *)
let widen_bounds v fn (rows : Tuple.t array) =
  let lo = ref v.tmin and hi = ref v.tmax in
  Array.iter
    (fun row ->
      let n = Tuple.arity row in
      match (Tuple.get row (n - 2), Tuple.get row (n - 1)) with
      | Value.Int b, Value.Int e ->
          if b < !lo then lo := b;
          if e > !hi then hi := e
      | _ -> invalid_arg (fn ^ ": non-integer period"))
    rows;
  widen v !lo !hi

(** Register a plain (non-temporal) table. *)
let add_table db name table =
  let order = Array.init (Schema.arity (Table.schema table)) Fun.id in
  write db (fun v ->
      install ~ddl:true v name (Some { table; is_period = false; order }))

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
  let entry = { table = reordered; is_period = true; order = Array.of_list order } in
  (* the bounds are read from the period columns, boxing no row *)
  let b, e =
    try Batch.period_arrays (Table.columnar reordered)
    with Invalid_argument _ -> invalid_arg "Database.add_period_table: non-integer period"
  in
  write db @@ fun v ->
  let lo = Array.fold_left Int.min v.tmin b and hi = Array.fold_left Int.max v.tmax e in
  install ~ddl:true (widen v lo hi) name (Some entry)

let entry_in v name =
  match Names.find_opt (key name) v.tables with
  | Some e -> e
  | None -> raise (Schema.Unknown name)

let find_entry db name = entry_in (Atomic.get db.cell) name
let find db name = (find_entry db name).table
let is_period db name = (find_entry db name).is_period
let mem db name = Names.mem (key name) (Atomic.get db.cell).tables
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

(* [v] with [name]'s table replaced by its successor ({!Table.write})
   and, for a period table, the bounds widened to cover the new rows *)
let succeed v fn name ~deleted (added : Tuple.t array) =
  let e = entry_in v name in
  let v = if e.is_period then widen_bounds v fn added else v in
  install ~ddl:false v name (Some { e with table = Table.write e.table ~deleted ~added })

(** Append rows to an existing table (INSERT).  Period tables get their
    time bounds widened; rows must already follow the stored column order. *)
let append_rows db name (rows : Tuple.t list) =
  let added = Array.of_list rows in
  write db (fun v -> succeed v "Database.append_rows" name ~deleted:[||] added)

(** Delete rows by position and append others (UPDATE/DELETE), keeping
    the table's schema and period registration. *)
let replace_rows db name ~deleted (added : Tuple.t array) =
  write db (fun v -> succeed v "Database.replace_rows" name ~deleted added)

let remove_table db name = write db (fun v -> install ~ddl:true v name None)

let names db = List.map fst (Names.bindings (Atomic.get db.cell).tables)

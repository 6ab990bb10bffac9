(* Seeded inputs: the employee catalog as SQL text, and the operation
   sequences of the three workloads.  Everything here is a pure function
   of the seed, so both sides of a comparison see identical inputs. *)

open Tkr_relation
module Database = Tkr_engine.Database
module Table = Tkr_engine.Table
module Employees = Tkr_workload.Employees

(* 1000 employees: ~12k rows over six period tables, where the fastest
   employee query takes milliseconds and the slowest a few hundred *)
let employees = 1000

(* The catalog is the same for every run seed: the seed varies the op
   sequence only, so the cost of the data itself does not differ between
   the runs of a comparison. *)
let config = Employees.scaled employees
let tmax = Employees.default.Employees.tmax

let sql_value = function
  | Value.Null -> "NULL"
  | Value.Bool b -> if b then "TRUE" else "FALSE"
  | Value.Int i -> string_of_int i
  | Value.Float f -> Printf.sprintf "%.17g" f
  | Value.Str s -> "'" ^ String.concat "''" (String.split_on_char '\'' s) ^ "'"

let sql_type = function
  | Value.TBool -> "bool"
  | Value.TInt -> "int"
  | Value.TFloat -> "float"
  | Value.TStr -> "text"

(* The catalog as a script: CREATE TABLE ... PERIOD and one INSERT per
   row, loaded through [Middleware.execute] like a client adding rows one
   at a time would. *)
let catalog_script () : string list =
  let db = Employees.generate config in
  List.concat_map
    (fun name ->
      let tbl = Database.find db name in
      let schema = Table.schema tbl in
      let cols =
        List.map
          (fun (a : Schema.attr) -> a.Schema.name ^ " " ^ sql_type a.Schema.ty)
          (Schema.attrs schema)
      in
      let create =
        Printf.sprintf "CREATE TABLE %s (%s) PERIOD (vt_b, vt_e)" name
          (String.concat ", " cols)
      in
      let rows = Table.rows tbl in
      let batch = 1 in
      let inserts =
        List.init
          ((Array.length rows + batch - 1) / batch)
          (fun b ->
            let lo = b * batch in
            let hi = min (Array.length rows) (lo + batch) in
            let tuples =
              List.init (hi - lo) (fun i ->
                  "("
                  ^ String.concat ", "
                      (List.map sql_value (Tuple.to_list rows.(lo + i)))
                  ^ ")")
            in
            Printf.sprintf "INSERT INTO %s VALUES %s" name
              (String.concat ", " tuples))
      in
      create :: inserts)
    (List.sort compare (Database.names db))

let rng seed salt = Random.State.make [| seed; salt |]

(* Fisher-Yates over a copy *)
let shuffle st a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* ---- olap: rounds of the ten employee queries, seed-shuffled ---- *)

let olap_queries = Array.of_list Tkr_workload.Queries.employee

let olap_rounds ~seed ~rounds : int array array =
  let st = rng seed 1 in
  Array.init rounds (fun _ ->
      shuffle st (Array.init (Array.length olap_queries) (fun i -> i)))

(* ---- serve: AS OF timeslices from a skewed population ---- *)

(* query shapes: the inner queries of the timeslice requests *)
let serve_shapes =
  [|
    ( "join-1",
      "SELECT d.dept_no, s.emp_no, s.salary FROM dept_emp d, salaries s \
       WHERE d.emp_no = s.emp_no" );
    ( "agg-1",
      "SELECT d.dept_no, avg(s.salary) AS avg_salary FROM dept_emp d, \
       salaries s WHERE d.emp_no = s.emp_no GROUP BY d.dept_no" );
    ( "join-3",
      "SELECT m.dept_no FROM dept_manager m, salaries s WHERE m.emp_no = \
       s.emp_no AND s.salary > 70000" );
    ( "diff-1",
      "SELECT emp_no FROM employees EXCEPT ALL SELECT emp_no FROM \
       dept_manager" );
  |]

let as_of shape t = Printf.sprintf "SEQ VT AS OF %d (%s)" t (snd serve_shapes.(shape))

(* A read op: shape index and time point. *)
type read = { shape : int; at : int }

(* The hot set, fixed for every seed so that its cost does not vary
   between runs: (shape, time point, share of all reads).  One statement
   takes over half of all reads, so the median read always lands in its
   hit latencies. *)
let hot =
  [|
    ({ shape = 1; at = 2000 }, 0.55);
    ({ shape = 0; at = 1000 }, 0.07);
    ({ shape = 2; at = 3000 }, 0.06);
    ({ shape = 3; at = 2500 }, 0.06);
    ({ shape = 0; at = 3500 }, 0.06);
    ({ shape = 1; at = 600 }, 0.06);
    ({ shape = 3; at = 1200 }, 0.06);
  |]

(* [n] reads: the hot set, or with the remaining probability (8%) a uniform
   draw over all shapes and time points — a long tail that almost never
   repeats, so it misses the result cache while the hot set hits *)
let serve_reads ~seed ~n : read array =
  let st = rng seed 2 in
  let shapes = Array.length serve_shapes in
  let pick u =
    let rec go i acc =
      if i = Array.length hot then None
      else
        let r, w = hot.(i) in
        if u < acc +. w then Some r else go (i + 1) (acc +. w)
    in
    go 0 0.
  in
  Array.init n (fun _ ->
      match pick (Random.State.float st 1.0) with
      | Some r -> r
      | None -> { shape = Random.State.int st shapes; at = Random.State.int st tmax })

(* ---- writes: DML alternating with AS OF reads ---- *)

let write_reads =
  [|
    ("title-count", "SELECT title, count(*) AS n FROM titles GROUP BY title");
    ( "title-dept",
      "SELECT d.dept_no, count(*) AS n FROM titles t, dept_emp d WHERE \
       t.emp_no = d.emp_no GROUP BY d.dept_no" );
    ( "title-pay",
      "SELECT t.title, avg(s.salary) AS pay FROM salaries s, titles t WHERE \
       s.emp_no = t.emp_no GROUP BY t.title" );
  |]

let titles = [| "Engineer"; "Senior Engineer"; "Staff"; "Senior Staff"; "Manager" |]

type wop =
  | Insert of string  (* statement text *)
  | Update of string
  | Delete of string
  | Read of int * string  (* shape index, statement text *)

let wop_class = function
  | Insert _ -> "insert"
  | Update _ -> "update"
  | Delete _ -> "delete"
  | Read (s, _) -> "read:" ^ fst write_reads.(s)

let wop_sql = function Insert s | Update s | Delete s | Read (_, s) -> s
let is_read = function Read _ -> true | _ -> false

(* [pairs] (write, read) pairs on the titles table (~2k rows): 60% INSERT
   of a new title period (the table grows through the run), 25% UPDATE
   and 15% DELETE FOR PORTION OF on one employee's history; each followed
   by an AS OF read over titles, 60% of them the first read shape.
   Inserts and the first read shape hold over half of their kind, so the
   median write and the median read each land inside one statement
   class. *)
let writes_ops ~seed ~pairs : wop array =
  let st = rng seed 3 in
  let emp () = 1 + Random.State.int st employees in
  let title () = titles.(Random.State.int st (Array.length titles)) in
  let span () =
    let b = Random.State.int st (tmax - 200) in
    (b, b + 20 + Random.State.int st 180)
  in
  let ops = Array.make (2 * pairs) (Insert "") in
  for i = 0 to pairs - 1 do
    let r = Random.State.float st 1.0 in
    let b, e = span () in
    let w =
      if r < 0.6 then
        Insert (Printf.sprintf "INSERT INTO titles VALUES (%d, '%s', %d, %d)" (emp ()) (title ()) b e)
      else if r < 0.85 then
        Update
          (Printf.sprintf
             "UPDATE titles FOR PORTION OF PERIOD FROM %d TO %d SET title = '%s' \
              WHERE emp_no = %d"
             b e (title ()) (emp ()))
      else
        Delete
          (Printf.sprintf
             "DELETE FROM titles FOR PORTION OF PERIOD FROM %d TO %d WHERE emp_no = %d"
             b e (emp ()))
    in
    let s =
      let u = Random.State.float st 1.0 in
      if u < 0.6 then 0 else if u < 0.8 then 1 else 2
    in
    let t = Random.State.int st tmax in
    ops.(2 * i) <- w;
    ops.((2 * i) + 1) <-
      Read (s, Printf.sprintf "SEQ VT AS OF %d (%s)" t (snd write_reads.(s)))
  done;
  ops

(* The snapshot catalog: a Database.t is a handle on an immutable
   catalog value.  Writes are all or nothing, a pinned handle keeps one
   state, a write never waits for a running read, concurrent writers
   lose nothing, concurrent reads equal the serial oracle at the epoch
   they pinned, and a superseded table value is collected once the reads
   that pinned it have returned. *)

module Value = Tkr_relation.Value
module Schema = Tkr_relation.Schema
module Tuple = Tkr_relation.Tuple
module Table = Tkr_engine.Table
module Database = Tkr_engine.Database
module M = Tkr_middleware.Middleware
module Metrics = Tkr_obs.Metrics
module Session = Tkr_serve.Session

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let p_schema =
  Schema.make
    [ Schema.attr "k" Value.TStr; Schema.attr "b" Value.TInt; Schema.attr "e" Value.TInt ]

let p_row k b e = Tuple.make [ Value.Str k; Value.Int b; Value.Int e ]

(* the catalog state a rejected write must leave alone *)
let state db name =
  ( Database.generation db,
    Database.time_bounds db,
    Database.version db name,
    Database.find db name )

let unchanged what db name (g, bounds, v, table) =
  check_int (what ^ ": generation") g (Database.generation db);
  check (what ^ ": time bounds") true (Database.time_bounds db = bounds);
  check_int (what ^ ": version") v (Database.version db name);
  check (what ^ ": table value") true (Database.find db name == table)

(* an UPDATE whose row map does not fit raises after computing bounds
   that would widen the catalog: nothing of it may land *)
let test_rejected_set_rows () =
  let db = Database.create ~tmin:0 ~tmax:10 () in
  Database.add_period_table db "p" (Table.make p_schema [ p_row "a" 1 5 ]);
  let before = state db "p" in
  (match Database.set_rows db "p" ~src:[| 7 |] [| p_row "b" (-100) 500 |] with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ());
  unchanged "bad src" db "p" before;
  check "bounds as loaded" true (Database.time_bounds db = (0, 10))

let test_rejected_append_rows () =
  let db = Database.create ~tmin:0 ~tmax:10 () in
  Database.add_period_table db "p" (Table.make p_schema [ p_row "a" 1 5 ]);
  let before = state db "p" in
  (match
     Database.append_rows db "p"
       [ p_row "b" (-50) 90; Tuple.make [ Value.Str "c"; Value.Null; Value.Int 3 ] ]
   with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ());
  unchanged "non-integer period" db "p" before

(* a pinned handle reads one value; writing through it raises and
   changes nothing, in the catalog and in the middleware *)
let test_pinned_handle () =
  let m = M.create () in
  ignore
    (M.execute_script m
       "CREATE TABLE t (k text, b int, e int) PERIOD (b, e); INSERT INTO t \
        VALUES ('a', 0, 4)");
  let db = M.database m in
  let pinned = Database.pin db in
  check "pinning a pin returns it" true (Database.pin pinned == pinned);
  ignore (M.execute m "INSERT INTO t VALUES ('b', 2, 9)");
  check_int "the live handle sees the write" 2 (Table.cardinality (Database.find db "t"));
  check_int "the pin does not" 1 (Table.cardinality (Database.find pinned "t"));
  check "the pin keeps its bounds" true (Database.time_bounds pinned = (0, 4));
  let live = state db "t" in
  (match Database.append_rows pinned "t" [ p_row "c" 0 1 ] with
  | () -> Alcotest.fail "a write through a pin must raise"
  | exception Invalid_argument _ -> ());
  unchanged "write through a pinned handle" db "t" live;
  let pm = M.pin m in
  (match M.execute pm "DELETE FROM t" with
  | _ -> Alcotest.fail "a DML statement through a pinned middleware must raise"
  | exception Invalid_argument _ -> ());
  unchanged "DML through a pinned middleware" db "t" live;
  check_int "the pinned middleware reads its value" 2
    (Table.cardinality (M.query pm "SELECT k FROM t"))

(* ---- a write during a long read ---- *)

(* poll [cond] every 5 ms for up to [secs] seconds *)
let eventually ~secs cond =
  let deadline = Unix.gettimeofday () +. secs in
  let rec go () =
    cond () || (Unix.gettimeofday () < deadline && (Thread.delay 0.005; go ()))
  in
  go ()

let count_of t = match Table.rows t with [| r |] -> Tuple.get r 0 | _ -> Value.Null

(* A count over a nested-loop self-join of [n] rows runs for a while
   (0.6 to 1.3 s at n = 3000 on a 2-vCPU VM).  An INSERT issued once the
   read has pinned its value must finish before the read does, in less
   than a quarter of the read's time (a write held behind the read
   takes most of it), and the read must count the rows it pinned.  The
   write runs on its own thread under a watchdog, so a write held
   behind the read fails the test rather than hanging it. *)
let test_write_during_long_read () =
  let n = 3000 in
  let m = M.create () in
  Database.add_table (M.database m) "big"
    (Table.of_array
       (Schema.make [ Schema.attr "x" Value.TInt ])
       (Array.init n (fun i -> Tuple.make [ Value.Int i ])));
  let reader =
    Domain.spawn (fun () ->
        let t0 = Unix.gettimeofday () in
        let t = M.query m "SELECT count(*) AS c FROM big a, big b WHERE a.x < b.x" in
        (t, t0, Unix.gettimeofday ()))
  in
  (* the check phase runs after the read has pinned its value *)
  let checked = Metrics.counter (M.metrics m) "prepare_check_ns" in
  check "the read got past prepare" true
    (eventually ~secs:60. (fun () -> Metrics.value checked > 0));
  let wrote = Atomic.make None in
  ignore
    (Thread.create
       (fun () ->
         let t0 = Unix.gettimeofday () in
         ignore (M.execute m (Printf.sprintf "INSERT INTO big VALUES (%d)" n));
         Atomic.set wrote (Some (t0, Unix.gettimeofday ())))
       ());
  if not (eventually ~secs:60. (fun () -> Atomic.get wrote <> None)) then
    Alcotest.fail "the INSERT did not finish within 60 s";
  let w0, w1 = Option.get (Atomic.get wrote) in
  let t, r0, r1 = Domain.join reader in
  check "the INSERT finished before the read" true (w1 < r1);
  check
    (Printf.sprintf "the INSERT (%.3f s) was not held behind the read (%.3f s)"
       (w1 -. w0) (r1 -. r0))
    true
    ((w1 -. w0) *. 4. < r1 -. r0);
  check "the read counts the rows it pinned" true
    (count_of t = Value.Int (n * (n - 1) / 2));
  check "a later read sees the INSERT" true
    (count_of (M.query m "SELECT count(*) AS c FROM big") = Value.Int (n + 1))

(* ---- superseded values are collected ---- *)

let[@inline never] watch_table db name (flag : bool ref) =
  Gc.finalise (fun _ -> flag := true) (Database.find db name)

(* read through a session's plan table, as the query server does *)
let[@inline never] session_read s m sql =
  let pm = M.pin m in
  let p = Session.prepared s pm sql in
  Table.cardinality (M.run_prepared pm p.Session.prepared)

let[@inline never] pinned_read m flag =
  let pm = M.pin m in
  ignore (M.execute m "INSERT INTO g VALUES ('c', 1, 2)");
  Gc.full_major ();
  check "a value pinned by a running read stays" false !flag;
  check_int "and the read still sees it" 2
    (Table.cardinality (M.query pm "SELECT k FROM g"))

let test_superseded_collected () =
  let m = M.create () in
  ignore
    (M.execute_script m
       "CREATE TABLE g (k text, b int, e int) PERIOD (b, e); INSERT INTO g \
        VALUES ('a', 0, 4), ('b', 2, 6)");
  let s = Option.get (Session.open_session (Session.manager ~max_sessions:1)) in
  let sql = "SEQ VT AS OF 3 (SELECT k FROM g)" in
  let gone = ref false in
  watch_table (M.database m) "g" gone;
  check_int "a read through the session" 2 (session_read s m sql);
  pinned_read m gone;
  Gc.full_major ();
  check "the superseded value is collected once its reads returned" true !gone;
  let gone = ref false in
  watch_table (M.database m) "g" gone;
  check_int "the session reads the new value" 2 (session_read s m sql);
  ignore (M.execute m "DELETE FROM g WHERE k = 'c'");
  Gc.full_major ();
  check "the session's plans do not hold it" true !gone;
  check_int "the plan table survived" 1 (Session.prepared_count s)

(* ---- concurrent writers ---- *)

let test_concurrent_updates () =
  let m = M.create () in
  ignore
    (M.execute_script m "CREATE TABLE c (id int, n int); INSERT INTO c VALUES (1, 0)");
  let bump () =
    for _ = 1 to 50 do
      ignore (M.execute m "UPDATE c SET n = n + 1 WHERE id = 1")
    done
  in
  List.iter Domain.join (List.init 4 (fun _ -> Domain.spawn bump));
  check "four writers' 200 increments all landed" true
    (count_of (M.query m "SELECT n FROM c") = Value.Int 200);
  check_int "one version per UPDATE" 202 (Database.version (M.database m) "c")

(* a read racing CREATE/DROP sees the table (empty or loaded) or gets
   the unknown-table error, never anything else *)
let test_ddl_racing_reads () =
  let m = M.create () in
  let stop = Atomic.make false in
  let bad = Atomic.make [] in
  let note s = Atomic.set bad (s :: Atomic.get bad) in
  let ddl () =
    for _ = 1 to 150 do
      ignore
        (M.execute_script m
           "CREATE TABLE r (x int); INSERT INTO r VALUES (1), (2); DROP TABLE r")
    done;
    Atomic.set stop true
  in
  let read () =
    while not (Atomic.get stop) do
      match M.query m "SELECT x FROM r WHERE x > 0" with
      | t ->
          let n = Table.cardinality t in
          if n <> 0 && n <> 2 then note (Printf.sprintf "%d rows" n)
      | exception (M.Error d | Tkr_sql.Analyzer.Error d) ->
          if d.Tkr_check.Diagnostic.code <> "TKR003" then
            note (Tkr_check.Diagnostic.to_string d)
      | exception e -> note (Printexc.to_string e)
    done
  in
  let readers = List.init 2 (fun _ -> Domain.spawn read) in
  ddl ();
  List.iter Domain.join readers;
  Alcotest.(check (list string)) "no read failed otherwise" [] (Atomic.get bad)

(* ---- concurrent snapshot differential ---- *)

let diff_reads =
  [
    "SEQ VT (SELECT k, sum(n) AS s FROM w GROUP BY k)";
    "SEQ VT (SELECT k, n FROM w WHERE n > 3)";
    "SEQ VT AS OF 7 (SELECT k, n FROM w)";
    "SEQ VT AS OF 15 (SELECT count(*) AS c FROM w)";
  ]

(* a random write: INSERT, UPDATE ... FOR PORTION OF, or DELETE *)
let random_write st =
  let r n = Random.State.int st n in
  let portion () =
    if r 2 = 0 then ""
    else
      let a = r 20 in
      Printf.sprintf " FOR PORTION OF PERIOD FROM %d TO %d" a (a + 1 + r 6)
  in
  let where () =
    match r 3 with
    | 0 -> ""
    | 1 -> Printf.sprintf " WHERE k = 'k%d'" (r 4)
    | _ -> Printf.sprintf " WHERE n < %d" (r 10)
  in
  match r 5 with
  | 0 | 1 ->
      let b = r 20 in
      Printf.sprintf "INSERT INTO w VALUES ('k%d', %d, %d, %d)" (r 4) (r 10) b
        (b + 1 + r 8)
  | 2 | 3 -> Printf.sprintf "UPDATE w%s SET n = n + 1%s" (portion ()) (where ())
  | _ -> Printf.sprintf "DELETE FROM w%s%s" (portion ()) (where ())

let render t = Format.asprintf "%a" Table.pp t

(* Two domains read through the middleware while a writer thread
   applies a random DML sequence.  Each read pins its value and records
   the epoch; its rows must equal the row oracle's at that epoch,
   computed beforehand by replaying the same writes serially. *)
let test_concurrent_differential () =
  let st = Random.State.make [| 30 |] in
  let setup =
    "CREATE TABLE w (k text, n int, b int, e int) PERIOD (b, e); INSERT INTO w VALUES "
    ^ String.concat ", "
        (List.init 120 (fun _ ->
             let b = Random.State.int st 24 in
             Printf.sprintf "('k%d', %d, %d, %d)" (Random.State.int st 4)
               (Random.State.int st 10) b
               (b + 1 + Random.State.int st 6)))
  in
  let writes = List.init 40 (fun _ -> random_write st) in
  let expected = Hashtbl.create 64 in
  let oracle = M.create ~engine:M.Row () in
  let record () =
    Hashtbl.replace expected (M.epoch oracle)
      (List.map (fun q -> render (M.query oracle q)) diff_reads)
  in
  ignore (M.execute_script oracle setup);
  record ();
  List.iter
    (fun w ->
      ignore (M.execute oracle w);
      record ())
    writes;
  let m = M.create () in
  ignore (M.execute_script m setup);
  let done_writing = Atomic.make false in
  let writer =
    Thread.create
      (fun () ->
        List.iter
          (fun w ->
            ignore (M.execute m w);
            Thread.delay 0.002)
          writes;
        Atomic.set done_writing true)
      ()
  in
  let reader k () =
    let reads = ref 0 and bad = ref [] and epochs = ref [] in
    while (not (Atomic.get done_writing)) || !reads < 8 do
      let i = (k + !reads) mod List.length diff_reads in
      let pm = M.pin m in
      let e = M.epoch pm in
      let got = render (M.query pm (List.nth diff_reads i)) in
      (match Hashtbl.find_opt expected e with
      | Some want ->
          if not (String.equal got (List.nth want i)) then
            bad := Printf.sprintf "epoch %d: %s" e (List.nth diff_reads i) :: !bad
      | None -> bad := Printf.sprintf "epoch %d never published" e :: !bad);
      if not (List.mem e !epochs) then epochs := e :: !epochs;
      incr reads
    done;
    (!bad, List.length !epochs)
  in
  let readers = List.init 2 (fun k -> Domain.spawn (reader k)) in
  Thread.join writer;
  let results = List.map Domain.join readers in
  Alcotest.(check (list string))
    "every read equals the row oracle at its epoch" []
    (List.concat_map fst results);
  check "the readers saw the catalog move" true
    (List.fold_left (fun acc (_, n) -> acc + n) 0 results >= 2);
  check_int "every write was published" (M.epoch oracle) (M.epoch m)

let suite =
  ( "snapshot catalog (Database)",
    [
      Alcotest.test_case "a rejected set_rows leaves the catalog untouched" `Quick
        test_rejected_set_rows;
      Alcotest.test_case "a rejected append_rows leaves the catalog untouched"
        `Quick test_rejected_append_rows;
      Alcotest.test_case "a pinned handle reads one value and cannot write" `Quick
        test_pinned_handle;
      Alcotest.test_case "a write is not held behind a long read" `Quick
        test_write_during_long_read;
      Alcotest.test_case "a superseded table value is collected" `Quick
        test_superseded_collected;
      Alcotest.test_case "four concurrent writers lose no UPDATE" `Quick
        test_concurrent_updates;
      Alcotest.test_case "CREATE/DROP racing reads never crash" `Quick
        test_ddl_racing_reads;
      Alcotest.test_case "concurrent reads = row oracle at their epoch" `Quick
        test_concurrent_differential;
    ] )

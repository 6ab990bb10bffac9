(** Snapshot-aware result cache: LRU over payload strings, entries keyed
    on the normalized plan and guarded by [(table, version)] dependency
    sets.  See the interface for the equivalence argument. *)

module Json = Tkr_obs.Json

type node = {
  key : string;
  deps : (string * int) list;  (* sorted by table name *)
  payload : string;
  rows : int;  (* result cardinality, carried so hits can report rows_out *)
  size : int;
  mutable prev : node;
  mutable next : node;
}

type t = {
  max_bytes : int;
  tbl : (string, node) Hashtbl.t;
  sent : node;  (* sentinel: [sent.next] is most recent, [sent.prev] least *)
  lock : Mutex.t;
  mutable bytes : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable invalidations : int;
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;
  entries : int;
  bytes : int;
  max_bytes : int;
}

let make_sentinel () =
  let rec s =
    { key = ""; deps = []; payload = ""; rows = 0; size = 0; prev = s; next = s }
  in
  s

let create ~max_bytes =
  {
    max_bytes = (if max_bytes < 0 then 0 else max_bytes);
    tbl = Hashtbl.create 64;
    sent = make_sentinel ();
    lock = Mutex.create ();
    bytes = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    invalidations = 0;
  }

let enabled (c : t) = c.max_bytes > 0

let locked c f =
  Mutex.lock c.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock c.lock) f

(* ---- intrusive LRU list (all under the lock) ---- *)

let unlink n =
  n.prev.next <- n.next;
  n.next.prev <- n.prev;
  n.prev <- n;
  n.next <- n

let push_front c n =
  n.next <- c.sent.next;
  n.prev <- c.sent;
  c.sent.next.prev <- n;
  c.sent.next <- n

let remove c n =
  unlink n;
  Hashtbl.remove c.tbl n.key;
  c.bytes <- c.bytes - n.size

let normalize_deps deps =
  List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) deps

type outcome =
  | Hit of string * int  (* payload, result cardinality *)
  | Miss

let lookup (c : t) ~key ~deps : outcome =
  if not (enabled c) then Miss
  else
    locked c @@ fun () ->
    match Hashtbl.find_opt c.tbl key with
    | None ->
        c.misses <- c.misses + 1;
        Miss
    | Some n ->
        let now = normalize_deps deps in
        if n.deps = now then (
          unlink n;
          push_front c n;
          c.hits <- c.hits + 1;
          Hit (n.payload, n.rows))
        else (
          (* a dependency moved on: the entry can never hit again *)
          remove c n;
          c.invalidations <- c.invalidations + 1;
          c.misses <- c.misses + 1;
          Miss)

let find (c : t) ~key ~deps =
  match lookup c ~key ~deps with
  | Hit (p, _) -> Some p
  | Miss -> None

let add (c : t) ?(rows = 0) ~key ~deps payload =
  let size = String.length payload in
  if enabled c && size <= c.max_bytes then
    locked c @@ fun () ->
    (match Hashtbl.find_opt c.tbl key with
    | Some old -> remove c old
    | None -> ());
    let n =
      let rec n =
        {
          key;
          deps = normalize_deps deps;
          payload;
          rows;
          size;
          prev = n;
          next = n;
        }
      in
      n
    in
    Hashtbl.replace c.tbl key n;
    push_front c n;
    c.bytes <- c.bytes + size;
    while c.bytes > c.max_bytes do
      let lru = c.sent.prev in
      remove c lru;
      c.evictions <- c.evictions + 1
    done

let invalidate_table (c : t) name =
  if not (enabled c) then 0
  else
    let name = String.lowercase_ascii name in
    locked c @@ fun () ->
    let victims =
      Hashtbl.fold
        (fun _ n acc ->
          if List.exists (fun (t, _) -> String.lowercase_ascii t = name) n.deps
          then n :: acc
          else acc)
        c.tbl []
    in
    List.iter
      (fun n ->
        remove c n;
        c.invalidations <- c.invalidations + 1)
      victims;
    List.length victims

let clear (c : t) =
  locked c @@ fun () ->
  Hashtbl.reset c.tbl;
  c.sent.next <- c.sent;
  c.sent.prev <- c.sent;
  c.bytes <- 0

let stats (c : t) : stats =
  locked c @@ fun () ->
  {
    hits = c.hits;
    misses = c.misses;
    evictions = c.evictions;
    invalidations = c.invalidations;
    entries = Hashtbl.length c.tbl;
    bytes = c.bytes;
    max_bytes = c.max_bytes;
  }

let stats_json c =
  let s = stats c in
  Json.Obj
    [
      ("hits", Json.Int s.hits);
      ("misses", Json.Int s.misses);
      ("evictions", Json.Int s.evictions);
      ("invalidations", Json.Int s.invalidations);
      ("entries", Json.Int s.entries);
      ("bytes", Json.Int s.bytes);
      ("max_bytes", Json.Int s.max_bytes);
    ]

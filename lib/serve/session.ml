module Middleware = Tkr_middleware.Middleware
open Tkr_relation

type plan = { prepared : Middleware.prepared; key : string; fp : string }

type session = {
  sid : int;
  stmts : (string, plan) Hashtbl.t;
      (* statement text -> plan, every plan prepared at [epoch] *)
  mutable epoch : int;
      (* the middleware epoch the table's plans were prepared at; when it
         moves, every plan baked catalog state (time bounds, schema
         arities) that has since changed, so the table is emptied *)
}

type manager = {
  max_sessions : int;
  mutable next_id : int;
  mutable live : int;
  m_lock : Mutex.t;
}

let locked mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let manager ~max_sessions =
  { max_sessions; next_id = 1; live = 0; m_lock = Mutex.create () }

let open_session m =
  locked m.m_lock @@ fun () ->
  if m.live >= m.max_sessions then None
  else begin
    let sid = m.next_id in
    m.next_id <- sid + 1;
    m.live <- m.live + 1;
    Some { sid; stmts = Hashtbl.create 16; epoch = -1 }
  end

let close m (_ : session) = locked m.m_lock (fun () -> m.live <- m.live - 1)

let id s = s.sid
let active m = locked m.m_lock (fun () -> m.live)

(* the cache key: normalized final plan plus the post-plan shape
   (ordering, limit, snapshot rendering) — everything that determines the
   result bytes besides the dependency table states *)
let plan_key (p : Middleware.prepared) =
  String.concat "\x00"
    [
      Algebra.to_string p.Middleware.plan;
      String.concat ","
        (List.map
           (fun (i, asc) -> Printf.sprintf "%d%c" i (if asc then 'a' else 'd'))
           p.Middleware.order_by);
      (match p.Middleware.limit with Some n -> string_of_int n | None -> "");
      (if p.Middleware.snapshot then "s" else "");
    ]

let fingerprint (text : string) : string =
  String.sub (Digest.to_hex (Digest.string text)) 0 12

(* a connection sending ever new statement texts (AS OF reads at varying
   points) must not keep one plan per text for its lifetime: a full
   table starts over *)
let max_prepared = 256

let prepared s mw stmt =
  let ep = Middleware.epoch mw in
  if s.epoch <> ep then begin
    Hashtbl.reset s.stmts;
    s.epoch <- ep
  end;
  match Hashtbl.find_opt s.stmts stmt with
  | Some p -> p
  | None ->
      let prepared = Middleware.prepare mw stmt in
      let key = plan_key prepared in
      let p = { prepared; key; fp = fingerprint key } in
      if Hashtbl.length s.stmts >= max_prepared then Hashtbl.reset s.stmts;
      Hashtbl.replace s.stmts stmt p;
      p

let prepared_count s = Hashtbl.length s.stmts

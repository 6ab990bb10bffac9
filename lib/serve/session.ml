module Middleware = Tkr_middleware.Middleware

type session = {
  sid : int;
  stmts : (string, Middleware.prepared) Hashtbl.t;
      (* statement text -> plan, every plan prepared at [epoch] *)
  mutable epoch : int;
      (* the middleware epoch the table's plans were prepared at; when it
         moves, every plan baked catalog state (time bounds, schema
         arities) that has since changed, so the table is emptied *)
  s_lock : Mutex.t;
  mutable counted : bool;  (* still counted in the manager's [live] *)
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
    Some
      {
        sid;
        stmts = Hashtbl.create 16;
        epoch = -1;
        s_lock = Mutex.create ();
        counted = true;
      }
  end

(* idempotent: connection teardown can race with server drain *)
let close m s =
  locked m.m_lock @@ fun () ->
  if s.counted then begin
    s.counted <- false;
    m.live <- m.live - 1
  end

let id s = s.sid
let active m = locked m.m_lock (fun () -> m.live)

(* a connection sending ever new statement texts (AS OF reads at varying
   points) must not keep one plan per text for its lifetime: a full
   table starts over *)
let max_prepared = 256

let prepared s mw stmt =
  (* fast path under the session lock; prepare outside it so slow
     preparations don't serialize unrelated statements of the session.
     Callers executing the plan run this under Middleware.read_locked, so
     the epoch cannot move between the check and the execution; outside
     that bracket a concurrent mutation at worst stores a plan that is
     already stale, which the next lookup drops. *)
  let ep = Middleware.epoch mw in
  let cached =
    locked s.s_lock @@ fun () ->
    if s.epoch <> ep then begin
      Hashtbl.reset s.stmts;
      s.epoch <- ep
    end;
    Hashtbl.find_opt s.stmts stmt
  in
  match cached with
  | Some p -> p
  | None ->
      let p = Middleware.prepare mw stmt in
      locked s.s_lock (fun () ->
          if s.epoch <> ep then p (* the table moved on meanwhile *)
          else
            match Hashtbl.find_opt s.stmts stmt with
            | Some winner -> winner (* another thread of this session won *)
            | None ->
                if Hashtbl.length s.stmts >= max_prepared then
                  Hashtbl.reset s.stmts;
                Hashtbl.replace s.stmts stmt p;
                p)

let prepared_count s = locked s.s_lock (fun () -> Hashtbl.length s.stmts)

module Middleware = Tkr_middleware.Middleware
module Ast = Tkr_sql.Ast
open Tkr_relation

type plan = { prepared : Middleware.prepared; key : string; fp : string }

(* a bound plan and its last use, in session ticks *)
type slot = { plan : plan; mutable used : int }

type entry = {
  e_key : string;  (* the shape key the entry is held under *)
  shape : Middleware.shape;
  mutable opt : Middleware.optimized;
  bound : (int option, slot) Hashtbl.t;
      (* AS OF point -> the plan bound from [opt] at that point *)
}

type outcomes = { prepares : int Atomic.t; binds : int Atomic.t; hits : int Atomic.t }

type session = {
  sid : int;
  shapes : (string, entry) Hashtbl.t;
      (* shape key -> entry; every entry held here holds a plan *)
  mutable plans : int;  (* plans held by all entries *)
  mutable tick : int;
  counts : outcomes;  (* the manager's *)
}

type manager = {
  max_sessions : int;
  mutable next_id : int;
  mutable live : int;
  m_lock : Mutex.t;
  outcomes : outcomes;
}

let locked mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let manager ~max_sessions =
  {
    max_sessions;
    next_id = 1;
    live = 0;
    m_lock = Mutex.create ();
    outcomes =
      { prepares = Atomic.make 0; binds = Atomic.make 0; hits = Atomic.make 0 };
  }

let open_session m =
  locked m.m_lock @@ fun () ->
  if m.live >= m.max_sessions then None
  else begin
    let sid = m.next_id in
    m.next_id <- sid + 1;
    m.live <- m.live + 1;
    Some
      { sid; shapes = Hashtbl.create 16; plans = 0; tick = 0; counts = m.outcomes }
  end

let close m (_ : session) = locked m.m_lock (fun () -> m.live <- m.live - 1)

let id s = s.sid
let active m = locked m.m_lock (fun () -> m.live)

let outcomes m =
  let o = m.outcomes in
  [
    ("prepare", Atomic.get o.prepares);
    ("bind", Atomic.get o.binds);
    ("hit", Atomic.get o.hits);
  ]

(* the cache key: the final plan ({!Algebra.add_key}) plus the
   post-plan shape (ordering, limit, snapshot rendering) — everything
   that determines the result bytes besides the dependency table
   states *)
let plan_key (p : Middleware.prepared) =
  let buf = Buffer.create 256 in
  Algebra.add_key buf p.Middleware.plan;
  let add_int i = Buffer.add_int64_le buf (Int64.of_int i) in
  add_int (List.length p.Middleware.order_by);
  List.iter
    (fun (i, asc) ->
      add_int i;
      Buffer.add_char buf (if asc then 'a' else 'd'))
    p.Middleware.order_by;
  (match p.Middleware.limit with
  | Some n ->
      Buffer.add_char buf 'l';
      add_int n
  | None -> Buffer.add_char buf '.');
  Buffer.add_char buf (if p.Middleware.snapshot then 's' else 'p');
  Buffer.contents buf

let fingerprint (text : string) : string =
  String.sub (Digest.to_hex (Digest.string text)) 0 12

(* a connection sending ever new statements (AS OF reads at ever new
   points) must not keep one plan per statement for its lifetime *)
let max_plans = 256

(* texts that differ only in the top-level AS OF literal share a key *)
let shape_key text (stmt : Ast.statement) =
  match stmt with
  | Ast.Query { as_of_span = Some (a, b); _ } ->
      String.concat "\x00"
        [ String.sub text 0 a; String.sub text b (String.length text - b) ]
  | _ -> text

let drop s e =
  s.plans <- s.plans - Hashtbl.length e.bound;
  Hashtbl.reset e.bound;
  Hashtbl.remove s.shapes e.e_key

(* drop the plan used longest ago, and its entry once it holds none *)
let evict s =
  let oldest = ref None in
  Hashtbl.iter
    (fun _ e ->
      Hashtbl.iter
        (fun at slot ->
          match !oldest with
          | Some (_, _, used) when used <= slot.used -> ()
          | _ -> oldest := Some (e, at, slot.used))
        e.bound)
    s.shapes;
  match !oldest with
  | Some (e, at, _) ->
      Hashtbl.remove e.bound at;
      s.plans <- s.plans - 1;
      if Hashtbl.length e.bound = 0 then Hashtbl.remove s.shapes e.e_key
  | None -> ()

let add s e at prepared =
  if s.plans >= max_plans then evict s;
  let key = plan_key prepared in
  let plan = { prepared; key; fp = fingerprint key } in
  Hashtbl.replace e.bound at { plan; used = s.tick };
  s.plans <- s.plans + 1;
  Hashtbl.replace s.shapes e.e_key e;
  plan

let prepared s mw text stmt =
  let key = shape_key text stmt and at = Middleware.point stmt in
  s.tick <- s.tick + 1;
  match Hashtbl.find_opt s.shapes key with
  | Some e when Middleware.shape_valid mw e.shape -> (
      (* the bound plans stand while the optimizer's plan does *)
      let opt = Middleware.optimize ~prev:e.opt mw e.shape in
      if opt != e.opt then begin
        drop s e;
        e.opt <- opt
      end;
      match Hashtbl.find_opt e.bound at with
      | Some slot ->
          slot.used <- s.tick;
          Atomic.incr s.counts.hits;
          slot.plan
      | None ->
          let p = Middleware.bind mw e.opt at in
          Atomic.incr s.counts.binds;
          add s e at p)
  | known ->
      Option.iter (drop s) known;
      let shape = Middleware.shape mw stmt in
      let opt = Middleware.optimize mw shape in
      let p = Middleware.bind mw opt at in
      Atomic.incr s.counts.prepares;
      add s { e_key = key; shape; opt; bound = Hashtbl.create 8 } at p

let prepared_count s = s.plans

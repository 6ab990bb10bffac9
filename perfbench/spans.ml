(* In-memory span recorder for the traced run.

   Spans are recorded by the benchmark around its own calls into the
   program's public API (parse, check, rewrite, optimize, prepare,
   execute, encode, decode, ...): name, start, end and parent.  They are
   kept in memory and written out once, when the run ends, as JSON and as
   folded stacks.  A span's self time is its duration minus the time its
   child spans cover. *)

type span = {
  id : int;
  name : string;
  parent : int;  (* -1 for a root *)
  start_ns : float;
  mutable stop_ns : float;
  mutable child_ns : float;  (* time covered by direct children *)
}

type t = {
  on : bool;
  mutable spans : span list;  (* finished, newest first *)
  mutable stack : span list;  (* open spans, innermost first *)
  mutable next : int;
}

let create ~on = { on; spans = []; stack = []; next = 0 }
let now_ns = Calib.now_ns

let finish t sp stop =
  sp.stop_ns <- stop;
  (match t.stack with _ :: rest -> t.stack <- rest | [] -> ());
  (match t.stack with
  | p :: _ -> p.child_ns <- p.child_ns +. (stop -. sp.start_ns)
  | [] -> ());
  t.spans <- sp :: t.spans

let open_span t name start =
  let parent = match t.stack with p :: _ -> p.id | [] -> -1 in
  let sp = { id = t.next; name; parent; start_ns = start; stop_ns = start; child_ns = 0. } in
  t.next <- t.next + 1;
  t.stack <- sp :: t.stack;
  sp

let with_span t name f =
  if not t.on then f ()
  else begin
    let sp = open_span t name (now_ns ()) in
    match f () with
    | r ->
        finish t sp (now_ns ());
        r
    | exception e ->
        finish t sp (now_ns ());
        raise e
  end

(* Graft a finished operator trace (durations only) under the innermost
   open span: children are laid out back to back from their parent's
   start, so self times are exact while start/end are placements. *)
let graft t ~(kind : Tkr_obs.Trace.span -> string) (root : Tkr_obs.Trace.span) =
  if t.on then begin
    let rec go start (s : Tkr_obs.Trace.span) =
      let sp = open_span t (kind s) start in
      let at = ref start in
      List.iter
        (fun c ->
          go !at c;
          at := !at +. Int64.to_float (Tkr_obs.Trace.elapsed_ns c))
        (Tkr_obs.Trace.children s);
      finish t sp (start +. Int64.to_float (Tkr_obs.Trace.elapsed_ns s))
    in
    let start = match t.stack with p :: _ -> p.start_ns +. p.child_ns | [] -> now_ns () in
    go start root
  end

let self_ns sp = Float.max 0. (sp.stop_ns -. sp.start_ns -. sp.child_ns)

(* [f span] summed per span name *)
let sum_by_name t f : (string, float) Hashtbl.t =
  let h = Hashtbl.create 64 in
  List.iter
    (fun sp ->
      let prev = Option.value ~default:0. (Hashtbl.find_opt h sp.name) in
      Hashtbl.replace h sp.name (prev +. f sp))
    t.spans;
  h

let self_by_name t = sum_by_name t self_ns
let total_by_name t = sum_by_name t (fun sp -> sp.stop_ns -. sp.start_ns)

(* start and end in ns from the first span's start *)
let to_json t : Tkr_obs.Json.t =
  let open Tkr_obs.Json in
  let origin = List.fold_left (fun a sp -> Float.min a sp.start_ns) infinity t.spans in
  List
    (List.rev_map
       (fun sp ->
         Obj
           [
             ("id", Int sp.id);
             ("name", Str sp.name);
             ("parent", Int sp.parent);
             ("start_ns", Float (sp.start_ns -. origin));
             ("end_ns", Float (sp.stop_ns -. origin));
             ("self_ns", Float (self_ns sp));
           ])
       t.spans)

(* folded stacks: one "root;child;leaf <self ns>" line per distinct path *)
let to_folded t : string =
  let by_id = Hashtbl.create 1024 in
  List.iter (fun sp -> Hashtbl.replace by_id sp.id sp) t.spans;
  let rec path sp =
    match Hashtbl.find_opt by_id sp.parent with
    | Some p -> path p ^ ";" ^ sp.name
    | None -> sp.name
  in
  let agg = Hashtbl.create 256 in
  List.iter
    (fun sp ->
      let k = path sp in
      let prev = Option.value ~default:0. (Hashtbl.find_opt agg k) in
      Hashtbl.replace agg k (prev +. self_ns sp))
    t.spans;
  let lines =
    Hashtbl.fold (fun k v acc -> Printf.sprintf "%s %.0f" k v :: acc) agg []
  in
  String.concat "\n" (List.sort compare lines) ^ "\n"

(** Span-based execution traces.

    A collector is either {!disabled} — the default, in which case
    {!with_span} runs its body with no span and no timing, making
    instrumentation effectively free — or created with {!create}, in which
    case each [with_span] produces a node of a trace tree annotated with a
    monotonic-clock duration and arbitrary key/value attributes (rows
    in/out, join strategy, coalesce segment counts, ...).

    Finished trees are rendered by {!to_text} for the EXPLAIN ANALYZE
    operator tree and by {!to_json_value} for machine-readable dumps. *)

type value = Int of int | Float of float | Str of string | Bool of bool

type span = {
  sp_name : string;
  mutable sp_attrs : (string * value) list;  (** reversed insertion order *)
  mutable sp_children : span list;  (** reversed *)
  mutable sp_elapsed_ns : int64;
}

type state = {
  clock : Clock.t;
  gc : bool;  (** annotate every span with GC/allocation deltas *)
  mutable stack : (span * int64 * ((float * float) * Gc.stat) option) list;
      (** open spans with start times and (when profiling) start GC
          stats: word counts from {!alloc_words} and collection counts
          from [Gc.quick_stat ()] *)
  mutable finished : span list;  (** finished root spans, reversed *)
}

type t = Disabled | Enabled of state

let disabled = Disabled

let create ?(clock = Clock.monotonic) ?(gc = false) () =
  Enabled { clock; gc; stack = []; finished = [] }

let enabled = function Disabled -> false | Enabled _ -> true

(* GC/allocation attribute names, shared with the profiling consumers *)
let gc_minor_words = "gc_minor_words"
let gc_major_words = "gc_major_words"
let gc_minor_collections = "gc_minor_collections"
let gc_major_collections = "gc_major_collections"

let alloc_words () =
  let _, _, major = Gc.counters () in
  (Gc.minor_words (), major)

let with_span (t : t) (name : string) (f : span option -> 'a) : 'a =
  match t with
  | Disabled -> f None
  | Enabled st ->
      let sp = { sp_name = name; sp_attrs = []; sp_children = []; sp_elapsed_ns = 0L } in
      let gc0 =
        if st.gc then Some (alloc_words (), Gc.quick_stat ()) else None
      in
      let t0 = st.clock () in
      st.stack <- (sp, t0, gc0) :: st.stack;
      let finish () =
        sp.sp_elapsed_ns <- Int64.sub (st.clock ()) t0;
        (match gc0 with
        | None -> ()
        | Some ((mw0, jw0), g0) ->
            let mw1, jw1 = alloc_words () in
            let g1 = Gc.quick_stat () in
            sp.sp_attrs <-
              (gc_major_collections, Int (g1.major_collections - g0.major_collections))
              :: (gc_minor_collections, Int (g1.minor_collections - g0.minor_collections))
              :: (gc_major_words, Float (jw1 -. jw0))
              :: (gc_minor_words, Float (mw1 -. mw0))
              :: sp.sp_attrs);
        (match st.stack with
        | (top, _, _) :: rest when top == sp -> st.stack <- rest
        | _ -> ());
        match st.stack with
        | (parent, _, _) :: _ -> parent.sp_children <- sp :: parent.sp_children
        | [] -> st.finished <- sp :: st.finished
      in
      (match f (Some sp) with
      | r ->
          finish ();
          r
      | exception e ->
          finish ();
          raise e)

let roots = function Disabled -> [] | Enabled st -> List.rev st.finished

let clear = function
  | Disabled -> ()
  | Enabled st ->
      st.stack <- [];
      st.finished <- []

(* ---- attributes ---- *)

let set (sp : span option) key v =
  match sp with None -> () | Some sp -> sp.sp_attrs <- (key, v) :: sp.sp_attrs

let set_int sp key i = set sp key (Int i)
let set_str sp key s = set sp key (Str s)
let set_bool sp key b = set sp key (Bool b)

(* insertion order is [List.rev sp_attrs]: the new attribute goes right
   after [before] in the reversed list *)
let set_before (sp : span) ~before key v =
  let rec go = function
    | [] -> None
    | ((k, _) as a) :: rest when k = before -> Some (a :: (key, v) :: rest)
    | a :: rest -> Option.map (fun r -> a :: r) (go rest)
  in
  sp.sp_attrs <-
    (match go sp.sp_attrs with Some l -> l | None -> (key, v) :: sp.sp_attrs)

(* ---- span accessors ---- *)

let name sp = sp.sp_name
let elapsed_ns sp = sp.sp_elapsed_ns
let children sp = List.rev sp.sp_children
let attrs sp = List.rev sp.sp_attrs
let find_attr sp key = List.assoc_opt key (attrs sp)

let rec iter f sp =
  f sp;
  List.iter (iter f) (children sp)

(* ---- rendering ---- *)

let pp_value ppf = function
  | Int i -> Format.fprintf ppf "%d" i
  | Float f -> Format.fprintf ppf "%g" f
  | Str s -> Format.fprintf ppf "%s" s
  | Bool b -> Format.fprintf ppf "%b" b

(** One operator per line, attributes as [key=value], children indented. *)
let to_text ?(show_time = true) (sp : span) : string =
  let buf = Buffer.create 256 in
  let rec go indent sp =
    Buffer.add_string buf indent;
    Buffer.add_string buf sp.sp_name;
    List.iter
      (fun (k, v) ->
        Buffer.add_string buf
          (Format.asprintf "  %s=%a" k pp_value v))
      (attrs sp);
    if show_time then
      Buffer.add_string buf
        (Printf.sprintf "  [%.3f ms]" (Clock.ns_to_ms sp.sp_elapsed_ns));
    Buffer.add_char buf '\n';
    List.iter (go (indent ^ "  ")) (children sp)
  in
  go "" sp;
  Buffer.contents buf

let value_json = function
  | Int i -> Json.Int i
  | Float f -> Json.Float f
  | Str s -> Json.Str s
  | Bool b -> Json.Bool b

let rec to_json_value (sp : span) : Json.t =
  Json.Obj
    [
      ("op", Json.Str sp.sp_name);
      ("elapsed_ns", Json.Int (Int64.to_int sp.sp_elapsed_ns));
      ("attrs", Json.Obj (List.map (fun (k, v) -> (k, value_json v)) (attrs sp)));
      ("children", Json.List (List.map to_json_value (children sp)));
    ]

(** Span-based execution traces.

    The {!disabled} collector (the default everywhere) makes {!with_span}
    run its body with no span, no timing and no allocation beyond the
    call — instrumentation is effectively free unless a caller opts in
    with {!create}. *)

type value = Int of int | Float of float | Str of string | Bool of bool

type span
(** A node of a trace tree: name, attributes, children, duration. *)

type t
(** A trace collector. *)

val disabled : t
(** The no-op collector: spans are never created. *)

val create : ?clock:Clock.t -> ?gc:bool -> unit -> t
(** An enabled collector.  [clock] defaults to the monotonic clock; tests
    pass {!Clock.frozen} for zero, deterministic durations.  With
    [~gc:true] every span is annotated on finish with the GC/allocation
    delta of its body: {!gc_minor_words}/{!gc_major_words} (floats, in
    words) and {!gc_minor_collections}/{!gc_major_collections} (ints). *)

val gc_minor_words : string
val gc_major_words : string
val gc_minor_collections : string
val gc_major_collections : string
(** Attribute names used by [~gc:true] profiling. *)

val enabled : t -> bool

val with_span : t -> string -> (span option -> 'a) -> 'a
(** [with_span t name f] runs [f (Some span)] timing it into a fresh child
    of the innermost open span (or a new root), or [f None] if [t] is
    disabled.  Exception-safe: the span is finished either way. *)

val roots : t -> span list
(** Finished top-level spans, oldest first. *)

val clear : t -> unit
(** Drop all finished and open spans (collector reuse). *)

val set : span option -> string -> value -> unit
(** No-op on [None], so instrumentation sites need no match. *)

val set_int : span option -> string -> int -> unit
val set_str : span option -> string -> string -> unit
val set_bool : span option -> string -> bool -> unit

val set_before : span -> before:string -> string -> value -> unit
(** [set_before sp ~before key v] adds the attribute [key] to a finished
    span, listed just before its attribute [before] (last when [sp] has
    none): annotations computed after execution sit beside the counter
    they explain. *)

val name : span -> string
val elapsed_ns : span -> int64
val children : span -> span list
val attrs : span -> (string * value) list
(** Insertion order. *)

val find_attr : span -> string -> value option
val iter : (span -> unit) -> span -> unit
(** Pre-order. *)

val to_text : ?show_time:bool -> span -> string
(** One operator per line, [key=value] attributes, children indented. *)

val to_json_value : span -> Json.t

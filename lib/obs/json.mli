(** A minimal JSON codec for the observability sinks and the wire
    protocol: a tree type with its renderer, and one index-based scanner
    ({!Scan}) that the tree parser {!of_string} is built on. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact rendering with proper string escaping. *)

val write : Buffer.t -> t -> unit
(** {!to_string} into an existing buffer. *)

val add_string : Buffer.t -> string -> unit
(** A JSON string literal: quoted, with the quote, the backslash and
    newline, return and tab escaped, other control bytes as [\u00XX]
    and every other byte raw. *)

val add_int : Buffer.t -> int -> unit
(** Decimal digits, as [string_of_int] prints them; allocates nothing. *)

exception Parse_error of string

(** Single-pass reading over a string with no per-byte allocation: a
    cursor is a position in the source, and each reader skips leading
    whitespace, consumes one token or value and advances past it.  A
    string without escapes costs one copy; an integer is parsed in
    place.  Every reader raises {!Parse_error} (with the byte offset) on
    malformed input.  Each reader is one call per token, which from
    another module is never inlined: a caller that needs byte speed over
    a run of tokens of a known form reads {!source} from {!position}
    itself and {!seek}s back for anything else. *)
module Scan : sig
  type cursor

  val cursor : string -> cursor
  (** A cursor at the start of the string. *)

  val source : cursor -> string
  (** The string the cursor reads, for a caller's own byte loop. *)

  val position : cursor -> int
  (** The byte offset the next reader starts from. *)

  val seek : cursor -> int -> unit
  (** Move to a byte offset that {!position} returned. *)

  val peek : cursor -> char
  (** The next non-blank byte, not consumed; ['\000'] at end of input. *)

  val eat : cursor -> char -> bool
  (** Consume the next non-blank byte if it is the given one. *)

  val expect : cursor -> char -> unit

  val sep : cursor -> char -> bool
  (** After an array element or object field: [true] past a comma,
      [false] past the given closing bracket, an error otherwise. *)

  val finish : cursor -> unit
  (** Only whitespace may remain. *)

  val string : cursor -> string
  (** A string literal.  [\u] takes exactly four hex digits; a UTF-16
      surrogate pair decodes to one 4-byte UTF-8 sequence and a lone
      surrogate is an error. *)

  val bool : cursor -> bool
  val null : cursor -> unit

  val number : cursor -> int:(int -> 'a) -> float:(float -> 'a) -> 'a
  (** [int] for an integer literal in the int range (exact at [min_int]
      and [max_int]); [float] for a fraction, an exponent or an integer
      past the range. *)

  val int : cursor -> int
  (** An integer literal in the int range. *)

  val fields : cursor -> (string -> unit) -> unit
  (** An object: the callback gets each key and must consume its value. *)

  val elements : cursor -> (unit -> unit) -> unit
  (** An array: the callback must consume one element per call. *)

  val value : cursor -> t
  (** Any value, as a tree.  Nesting deeper than 512 is an error. *)

  val skip : cursor -> unit
  (** Any value, checked as {!value} checks it, but not built. *)
end

val of_string : string -> t
(** Parse a JSON document (inverse of {!to_string}; accepts ordinary JSON).
    Numbers without a fraction or exponent parse as [Int] when they fit.
    @raise Parse_error on malformed input. *)

val member : string -> t -> t option
(** Field lookup on [Obj]; [None] on other constructors. *)

val to_list : t -> t list
(** Items of a [List]; [[]] on other constructors. *)

val to_string_opt : t -> string option
val to_int_opt : t -> int option
(** [Int] directly, [Float] truncated. *)

val to_float_opt : t -> float option
(** [Float] directly, [Int] widened. *)

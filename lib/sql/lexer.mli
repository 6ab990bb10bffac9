(** Hand-written SQL lexer.  Keywords and identifiers are case-insensitive
    (lower-cased); strings use single quotes with [''] escaping; [-- ...]
    comments are skipped. *)

type token =
  | IDENT of string
  | INT of int
  | FLOAT of float
  | STRING of string
  | LPAREN
  | RPAREN
  | COMMA
  | DOT
  | SEMI
  | STAR
  | PLUS
  | MINUS
  | SLASH
  | PERCENT
  | EQ
  | NE
  | LT
  | LE
  | GT
  | GE
  | EOF

type pos = Tkr_check.Diagnostic.pos = { line : int; col : int }

exception Error of Tkr_check.Diagnostic.t
(** Lexical errors, as [TKR005] diagnostics with a source position. *)

val keywords : string list
(** The reserved words, lower-case.  A few of them ([count], [sum],
    [avg], [min], [max], [vt], [period]) are still accepted as names
    where the grammar allows it. *)

val is_keyword : string -> bool
(** Membership in {!keywords}, in constant time. *)

val is_digit : char -> bool

val tokenize_pos : string -> (token * pos) list
(** Tokenize, attaching each token's 1-based [line:col] position.
    @raise Error on malformed input. *)

val tokenize : string -> token list
(** Like {!tokenize_pos}, positions dropped. *)

val pp_token : Format.formatter -> token -> unit

(** A hand-written SQL lexer.  Keywords are case-insensitive; identifiers
    are lower-cased; strings use single quotes with [''] escaping. *)

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

let keywords =
  [
    "select"; "from"; "where"; "group"; "by"; "having"; "order"; "limit";
    "as"; "and"; "or"; "not"; "null"; "is"; "like"; "in"; "between"; "case";
    "when"; "then"; "else"; "end"; "union"; "except"; "intersect"; "all";
    "distinct"; "join"; "inner"; "cross"; "on"; "true"; "false"; "seq";
    "vt"; "count"; "sum"; "avg"; "min"; "max"; "create"; "table"; "insert";
    "into"; "values"; "period"; "int"; "integer"; "float"; "real"; "text";
    "varchar"; "bool"; "boolean"; "asc"; "desc"; "drop"; "update"; "set";
    "delete"; "for"; "portion"; "of"; "to";
  ]

(* every identifier is classified, so the test is one hash probe *)
let keyword_set =
  let h = Hashtbl.create 128 in
  List.iter (fun k -> Hashtbl.replace h k ()) keywords;
  h

let is_keyword s = Hashtbl.mem keyword_set s

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

(* Map a byte offset to a 1-based line:col position. *)
let positioner (s : string) : int -> pos =
  let starts = ref [ 0 ] in
  String.iteri (fun i c -> if c = '\n' then starts := (i + 1) :: !starts) s;
  let arr = Array.of_list (List.rev !starts) in
  fun i ->
    let lo = ref 0 and hi = ref (Array.length arr - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if arr.(mid) <= i then lo := mid else hi := mid - 1
    done;
    { line = !lo + 1; col = i - arr.(!lo) + 1 }

(** Tokenize a full SQL string, attaching each token's source position.
    Line comments ([-- ...]) are skipped. *)
let tokenize_pos (s : string) : (token * pos) list =
  let n = String.length s in
  let pos_of = positioner s in
  let lex_error i fmt =
    Format.kasprintf
      (fun msg ->
        raise
          (Error
             (Tkr_check.Diagnostic.v ~pos:(pos_of i) "TKR005" "%s" msg)))
      fmt
  in
  let rec go i acc =
    let emit j tok = go j ((tok, pos_of i) :: acc) in
    if i >= n then List.rev ((EOF, pos_of n) :: acc)
    else
      match s.[i] with
      | ' ' | '\t' | '\n' | '\r' -> go (i + 1) acc
      | '-' when i + 1 < n && s.[i + 1] = '-' ->
          let rec skip j = if j < n && s.[j] <> '\n' then skip (j + 1) else j in
          go (skip i) acc
      | '(' -> emit (i + 1) LPAREN
      | ')' -> emit (i + 1) RPAREN
      | ',' -> emit (i + 1) COMMA
      | '.' when not (i + 1 < n && is_digit s.[i + 1] && acc_is_numeric acc) ->
          emit (i + 1) DOT
      | ';' -> emit (i + 1) SEMI
      | '*' -> emit (i + 1) STAR
      | '+' -> emit (i + 1) PLUS
      | '-' -> emit (i + 1) MINUS
      | '/' -> emit (i + 1) SLASH
      | '%' -> emit (i + 1) PERCENT
      | '=' -> emit (i + 1) EQ
      | '!' when i + 1 < n && s.[i + 1] = '=' -> emit (i + 2) NE
      | '<' when i + 1 < n && s.[i + 1] = '>' -> emit (i + 2) NE
      | '<' when i + 1 < n && s.[i + 1] = '=' -> emit (i + 2) LE
      | '<' -> emit (i + 1) LT
      | '>' when i + 1 < n && s.[i + 1] = '=' -> emit (i + 2) GE
      | '>' -> emit (i + 1) GT
      | '\'' ->
          let buf = Buffer.create 16 in
          let rec str j =
            if j >= n then lex_error i "unterminated string literal"
            else if s.[j] = '\'' then
              if j + 1 < n && s.[j + 1] = '\'' then (
                Buffer.add_char buf '\'';
                str (j + 2))
              else j + 1
            else (
              Buffer.add_char buf s.[j];
              str (j + 1))
          in
          let i' = str (i + 1) in
          emit i' (STRING (Buffer.contents buf))
      | c when is_digit c ->
          let rec num j = if j < n && is_digit s.[j] then num (j + 1) else j in
          let j = num i in
          if j < n && s.[j] = '.' && j + 1 < n && is_digit s.[j + 1] then (
            let j' = num (j + 1) in
            let f = float_of_string (String.sub s i (j' - i)) in
            emit j' (FLOAT f))
          else (
            let digits = String.sub s i (j - i) in
            match int_of_string_opt digits with
            | Some v -> emit j (INT v)
            | None ->
                lex_error i "integer literal %s is out of range (at most %d)"
                  digits max_int)
      | c when is_ident_start c ->
          let rec ident j = if j < n && is_ident_char s.[j] then ident (j + 1) else j in
          let j = ident i in
          let word = String.lowercase_ascii (String.sub s i (j - i)) in
          emit j (IDENT word)
      | c -> lex_error i "unexpected character %C" c
  and acc_is_numeric = function (INT _, _) :: _ -> true | _ -> false in
  go 0 []

(** Tokenize, positions dropped. *)
let tokenize (s : string) : token list = List.map fst (tokenize_pos s)

let pp_token ppf = function
  | IDENT s -> Format.fprintf ppf "%s" s
  | INT i -> Format.fprintf ppf "%d" i
  | FLOAT f -> Format.fprintf ppf "%g" f
  | STRING s -> Format.fprintf ppf "'%s'" s
  | LPAREN -> Format.pp_print_string ppf "("
  | RPAREN -> Format.pp_print_string ppf ")"
  | COMMA -> Format.pp_print_string ppf ","
  | DOT -> Format.pp_print_string ppf "."
  | SEMI -> Format.pp_print_string ppf ";"
  | STAR -> Format.pp_print_string ppf "*"
  | PLUS -> Format.pp_print_string ppf "+"
  | MINUS -> Format.pp_print_string ppf "-"
  | SLASH -> Format.pp_print_string ppf "/"
  | PERCENT -> Format.pp_print_string ppf "%"
  | EQ -> Format.pp_print_string ppf "="
  | NE -> Format.pp_print_string ppf "<>"
  | LT -> Format.pp_print_string ppf "<"
  | LE -> Format.pp_print_string ppf "<="
  | GT -> Format.pp_print_string ppf ">"
  | GE -> Format.pp_print_string ppf ">="
  | EOF -> Format.pp_print_string ppf "<eof>"

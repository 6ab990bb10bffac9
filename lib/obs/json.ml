(** A minimal JSON codec — just enough for the metrics/trace sinks, the
    benchmark dumps and the wire protocol, so the observability layer
    adds no external dependencies.  Reading goes through one index-based
    scanner ({!Scan}); the tree parser {!of_string} is built on it, and
    callers that know their document's shape read straight from it. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ---- writing ---- *)

let hex_digit d = "0123456789abcdef".[d]

(* control bytes other than \n \r \t go out as \u00XX *)
let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

let add_escaped buf c =
  match c with
  | '"' -> Buffer.add_string buf "\\\""
  | '\\' -> Buffer.add_string buf "\\\\"
  | '\n' -> Buffer.add_string buf "\\n"
  | '\r' -> Buffer.add_string buf "\\r"
  | '\t' -> Buffer.add_string buf "\\t"
  | c ->
      Buffer.add_string buf "\\u00";
      Buffer.add_char buf (hex_digit (Char.code c lsr 4));
      Buffer.add_char buf (hex_digit (Char.code c land 15))

(* runs of raw bytes go in with one blit each *)
let add_string buf s =
  Buffer.add_char buf '"';
  let n = String.length s in
  let run = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if needs_escape c then (
      Buffer.add_substring buf s !run (i - !run);
      add_escaped buf c;
      run := i + 1)
  done;
  Buffer.add_substring buf s !run (n - !run);
  Buffer.add_char buf '"'

let min_int_digits = string_of_int min_int
let e15 = 1_000_000_000_000_000

(* the decimal digits of [v] (below 10^15), at least [width] of them
   (zero-padded): least significant first into the 4-bit nibbles of one
   int, then out of it most significant first, two ASCII digits per
   16-bit store.  Divisions by the constant 10 only. *)
let add_digits buf v width =
  let acc = ref 0 and v = ref v and n = ref 0 in
  while !n < width || !v > 0 do
    acc := (!acc lsl 4) lor (!v mod 10);
    v := !v / 10;
    incr n
  done;
  if !n land 1 = 1 then begin
    Buffer.add_char buf (Char.unsafe_chr (48 + (!acc land 15)));
    acc := !acc lsr 4
  end;
  for _ = 1 to !n / 2 do
    Buffer.add_uint16_be buf (0x3030 lor ((!acc land 15) lsl 8) lor ((!acc lsr 4) land 15));
    acc := !acc lsr 8
  done

(* straight into the buffer: allocates nothing *)
let add_int buf i =
  if i = min_int then Buffer.add_string buf min_int_digits
  else begin
    if i < 0 then Buffer.add_char buf '-';
    let v = abs i in
    if v < e15 then add_digits buf v 1
    else begin
      add_digits buf (v / e15) 1;
      add_digits buf (v mod e15) 15
    end
  end

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> add_int buf i
  | Float f ->
      if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.6g" f)
      else Buffer.add_string buf "null"
  | Str s -> add_string buf s
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          write buf item)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          add_string buf k;
          Buffer.add_char buf ':';
          write buf v)
        fields;
      Buffer.add_char buf '}'

let to_string (j : t) : string =
  let buf = Buffer.create 256 in
  write buf j;
  Buffer.contents buf

(* ---- reading ---- *)

exception Parse_error of string

module Scan = struct
  (* [num] and [exact] carry the last integer literal out of [lex_number]
     without a box or a closure *)
  type cursor = {
    src : string;
    mutable pos : int;
    mutable num : int;
    mutable exact : bool;
  }

  let cursor src = { src; pos = 0; num = 0; exact = false }
  let source c = c.src
  let position c = c.pos
  let seek c pos = c.pos <- pos

  let fail c fmt =
    Printf.ksprintf
      (fun m -> raise (Parse_error (Printf.sprintf "at %d: %s" c.pos m)))
      fmt

  (* Each reader below is one function with its loops inline: a call
     per token, not per byte.  Dune's default profile compiles with
     -opaque, so a call from another module is never inlined; a caller
     that reads many tokens of a known form at byte speed (the response
     decoder's rows) reads [source] itself from [position], and comes
     back through [seek] for any other form. *)

  let is_ws = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  let is_digit = function '0' .. '9' -> true | _ -> false

  let rec blank s n i =
    if i < n && is_ws (String.unsafe_get s i) then blank s n (i + 1) else i

  (* the first non-blank index at or after [c.pos]; inlined, so that a
     token with no blank before it (every token the writers above
     produce) costs one test and no call *)
  let[@inline] start c =
    let s = c.src and i = c.pos in
    let n = String.length s in
    if i < n && String.unsafe_get s i <= ' ' then blank s n i else i

  let peek c =
    let s = c.src and i = start c in
    let n = String.length s in
    c.pos <- i;
    if i < n then String.unsafe_get s i else '\000'

  let eat c ch =
    let s = c.src and i = start c in
    let n = String.length s in
    if i < n && String.unsafe_get s i = ch then (
      c.pos <- i + 1;
      true)
    else (
      c.pos <- i;
      false)

  let expected c what =
    if c.pos >= String.length c.src then
      fail c "expected %s, found end of input" what
    else fail c "expected %s, found %C" what c.src.[c.pos]

  let expect c ch = if not (eat c ch) then expected c (String.make 1 ch)

  (* after an element: [true] past a comma, [false] past [close] *)
  let sep c close =
    let s = c.src and i = start c in
    let n = String.length s in
    c.pos <- i;
    if i < n then
      match String.unsafe_get s i with
      | ',' ->
          c.pos <- i + 1;
          true
      | ch when ch = close ->
          c.pos <- i + 1;
          false
      | _ -> expected c (Printf.sprintf ", or %c" close)
    else expected c (Printf.sprintf ", or %c" close)

  let finish c =
    c.pos <- start c;
    if c.pos <> String.length c.src then fail c "trailing garbage"

  (* [word] in place, no copy *)
  let literal c word =
    let s = c.src and i = start c in
    let n = String.length s in
    c.pos <- i;
    let m = String.length word in
    if i + m > n then fail c "invalid literal";
    for k = 0 to m - 1 do
      if String.unsafe_get s (i + k) <> String.unsafe_get word k then
        fail c "invalid literal"
    done;
    c.pos <- i + m

  let bool c =
    match peek c with
    | 't' -> literal c "true"; true
    | 'f' -> literal c "false"; false
    | _ -> expected c "a boolean"

  let null c = literal c "null"

  (* ---- strings ---- *)

  let hex4 c i =
    if i + 4 > String.length c.src then (
      c.pos <- i;
      fail c "truncated \\u escape");
    let v = ref 0 in
    for k = i to i + 3 do
      let d =
        match String.unsafe_get c.src k with
        | '0' .. '9' as ch -> Char.code ch - 48
        | 'a' .. 'f' as ch -> Char.code ch - 87
        | 'A' .. 'F' as ch -> Char.code ch - 55
        | _ -> c.pos <- k; fail c "invalid \\u escape"
      in
      v := (!v lsl 4) lor d
    done;
    !v

  let add_utf8 buf code =
    let byte b = Buffer.add_char buf (Char.unsafe_chr b) in
    if code < 0x80 then byte code
    else if code < 0x800 then (
      byte (0xC0 lor (code lsr 6));
      byte (0x80 lor (code land 0x3F)))
    else if code < 0x10000 then (
      byte (0xE0 lor (code lsr 12));
      byte (0x80 lor ((code lsr 6) land 0x3F));
      byte (0x80 lor (code land 0x3F)))
    else (
      byte (0xF0 lor (code lsr 18));
      byte (0x80 lor ((code lsr 12) land 0x3F));
      byte (0x80 lor ((code lsr 6) land 0x3F));
      byte (0x80 lor (code land 0x3F)))

  (* the body of a string from its first backslash at [i] up to and past
     the closing quote, decoded into [buf]; a \u escape takes exactly
     four hex digits, and a UTF-16 surrogate pair is one code point *)
  let escaped c buf i =
    let s = c.src and n = String.length c.src in
    let bad i fmt =
      c.pos <- i;
      fail c fmt
    in
    let rec go i =
      if i >= n then bad i "unterminated string"
      else
        match String.unsafe_get s i with
        | '"' -> c.pos <- i + 1
        | '\\' ->
            if i + 1 >= n then bad i "unterminated escape";
            let next =
              match String.unsafe_get s (i + 1) with
              | '"' -> Buffer.add_char buf '"'; i + 2
              | '\\' -> Buffer.add_char buf '\\'; i + 2
              | '/' -> Buffer.add_char buf '/'; i + 2
              | 'b' -> Buffer.add_char buf '\b'; i + 2
              | 'f' -> Buffer.add_char buf '\012'; i + 2
              | 'n' -> Buffer.add_char buf '\n'; i + 2
              | 'r' -> Buffer.add_char buf '\r'; i + 2
              | 't' -> Buffer.add_char buf '\t'; i + 2
              | 'u' ->
                  let hi = hex4 c (i + 2) in
                  if hi >= 0xDC00 && hi <= 0xDFFF then
                    bad i "lone low surrogate \\u%04x" hi
                  else if hi >= 0xD800 && hi <= 0xDBFF then (
                    if
                      i + 7 >= n
                      || String.unsafe_get s (i + 6) <> '\\'
                      || String.unsafe_get s (i + 7) <> 'u'
                    then bad i "lone high surrogate \\u%04x" hi;
                    let lo = hex4 c (i + 8) in
                    if lo < 0xDC00 || lo > 0xDFFF then
                      bad i "lone high surrogate \\u%04x" hi;
                    add_utf8 buf
                      (0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00));
                    i + 12)
                  else (
                    add_utf8 buf hi;
                    i + 6)
              | ch -> bad i "invalid escape \\%c" ch
            in
            go next
        | ch ->
            Buffer.add_char buf ch;
            go (i + 1)
    in
    go i

  (* past the opening quote to the first quote or backslash after it:
     [c.pos] is left at that stop, and the body's start is returned *)
  let[@inline] raw_run c =
    let s = c.src and i = start c in
    let n = String.length s in
    c.pos <- i;
    if i >= n || String.unsafe_get s i <> '"' then expected c "a string";
    let j = ref (i + 1) in
    while
      !j < n
      && match String.unsafe_get s !j with '"' | '\\' -> false | _ -> true
    do
      incr j
    done;
    c.pos <- !j;
    if !j >= n then fail c "unterminated string";
    i + 1

  (* a string with no escapes is one copy of its bytes *)
  let string c =
    let i = raw_run c in
    let j = c.pos in
    if String.unsafe_get c.src j = '"' then (
      c.pos <- j + 1;
      String.sub c.src i (j - i))
    else
      let buf = Buffer.create (j - i + 16) in
      Buffer.add_substring buf c.src i (j - i);
      escaped c buf j;
      Buffer.contents buf

  let skip_string c =
    ignore (raw_run c);
    if String.unsafe_get c.src c.pos = '"' then c.pos <- c.pos + 1
    else escaped c (Buffer.create 16) c.pos

  (* ---- numbers ---- *)

  (* the int range, accumulated negatively so [min_int] is exact *)
  let limit = min_int / 10
  let last_digit = -(min_int - (limit * 10))

  let digit_expected c i =
    c.pos <- i;
    fail c "expected a digit"

  (* the end of a non-empty run of digits from [i] *)
  let digits c i =
    let s = c.src in
    let n = String.length s in
    let j = ref i in
    while !j < n && is_digit (String.unsafe_get s !j) do
      incr j
    done;
    if !j = i then digit_expected c i;
    !j

  (* -?d+(.d+)?([eE][+-]?d+)? from the next non-blank byte: returns its
     start and leaves [c.pos] past it; [c.exact] tells whether it is an
     integer in the int range, then held in [c.num] *)
  let lex_number c =
    let s = c.src and st = start c in
    let n = String.length s in
    let neg = st < n && String.unsafe_get s st = '-' in
    let i = ref (if neg then st + 1 else st) in
    let d0 = !i and acc = ref 0 and fits = ref true in
    while !i < n && is_digit (String.unsafe_get s !i) do
      let d = Char.code (String.unsafe_get s !i) - 48 in
      if !acc < limit || (!acc = limit && d > last_digit) then fits := false
      else acc := (!acc * 10) - d;
      incr i
    done;
    if !i = d0 then digit_expected c d0;
    let integral = ref true in
    if !i < n && String.unsafe_get s !i = '.' then (
      integral := false;
      i := digits c (!i + 1));
    if !i < n && (match String.unsafe_get s !i with 'e' | 'E' -> true | _ -> false)
    then (
      integral := false;
      let k = !i + 1 in
      let k =
        if k < n && (match String.unsafe_get s k with '+' | '-' -> true | _ -> false)
        then k + 1
        else k
      in
      i := digits c k);
    c.pos <- !i;
    c.exact <- !integral && !fits && (neg || !acc <> min_int);
    c.num <- (if neg then !acc else - !acc);
    st

  let float_from c st =
    match float_of_string_opt (String.sub c.src st (c.pos - st)) with
    | Some f -> f
    | None -> fail c "invalid number"

  (* integers in range go to [int]; fractions, exponents and integers
     past the int range go to [float] *)
  let number c ~int ~float =
    let st = lex_number c in
    if c.exact then int c.num else float (float_from c st)

  let int c =
    let st = lex_number c in
    if not c.exact then (
      c.pos <- st;
      fail c "expected an integer");
    c.num

  (* ---- structure ---- *)

  let fields c f =
    expect c '{';
    if not (eat c '}') then begin
      let more = ref true in
      while !more do
        let k = string c in
        expect c ':';
        f k;
        more := sep c '}'
      done
    end

  let elements c f =
    expect c '[';
    if not (eat c ']') then begin
      let more = ref true in
      while !more do
        f ();
        more := sep c ']'
      done
    end

  (* nesting past this is an error, not a stack overflow *)
  let max_depth = 512

  let unexpected c =
    if c.pos >= String.length c.src then fail c "unexpected end of input"
    else fail c "unexpected character %C" c.src.[c.pos]

  let rec value_at depth c =
    if depth > max_depth then fail c "nesting deeper than %d" max_depth;
    match peek c with
    | '"' -> Str (string c)
    | '{' ->
        let acc = ref [] in
        fields c (fun k -> acc := (k, value_at (depth + 1) c) :: !acc);
        Obj (List.rev !acc)
    | '[' ->
        let acc = ref [] in
        elements c (fun () -> acc := value_at (depth + 1) c :: !acc);
        List (List.rev !acc)
    | 't' | 'f' -> Bool (bool c)
    | 'n' -> null c; Null
    | '-' | '0' .. '9' ->
        let st = lex_number c in
        if c.exact then Int c.num else Float (float_from c st)
    | _ -> unexpected c

  let rec skip_at depth c =
    if depth > max_depth then fail c "nesting deeper than %d" max_depth;
    match peek c with
    | '"' -> skip_string c
    | '{' -> fields c (fun _ -> skip_at (depth + 1) c)
    | '[' -> elements c (fun () -> skip_at (depth + 1) c)
    | 't' | 'f' -> ignore (bool c)
    | 'n' -> null c
    | '-' | '0' .. '9' -> ignore (lex_number c)
    | _ -> unexpected c

  let value c = value_at 0 c
  let skip c = skip_at 0 c
end

let of_string (s : string) : t =
  let c = Scan.cursor s in
  let v = Scan.value c in
  Scan.finish c;
  v

(* ---- accessors (for readers of the bench/trace dumps) ---- *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

let to_list = function List items -> items | _ -> []

let to_string_opt = function Str s -> Some s | _ -> None

let to_int_opt = function Int i -> Some i | Float f -> Some (int_of_float f) | _ -> None

let to_float_opt = function Float f -> Some f | Int i -> Some (float_of_int i) | _ -> None

(** Recursive-descent parser for the SQL subset of {!Ast}. *)

open Ast

exception Error of Tkr_check.Diagnostic.t
(** Syntax errors, as [TKR004] diagnostics with a source position. *)

type state = {
  mutable toks : (Lexer.token * pos) list;
  src : string;
  mutable point : (int * int) option;
      (* the byte span of the current statement's first AS OF point,
         sign included *)
}

let peek st = match st.toks with [] -> Lexer.EOF | (t, _) :: _ -> t

let peek2 st =
  match st.toks with _ :: (t, _) :: _ -> t | _ -> Lexer.EOF

(* Position of the next token (the last seen position at end of input). *)
let cur_pos st =
  match st.toks with [] -> { line = 1; col = 1 } | (_, p) :: _ -> p

(* the byte offset of a position in [src] *)
let offset src (p : pos) =
  let rec line_start i l =
    if l = 1 then i else line_start (String.index_from src i '\n' + 1) (l - 1)
  in
  line_start 0 p.line + p.col - 1

let advance st = match st.toks with [] -> () | _ :: rest -> st.toks <- rest

let fail st msg =
  raise
    (Error
       (Tkr_check.Diagnostic.v ~pos:(cur_pos st) "TKR004"
          "%s (next token: %a)" msg Lexer.pp_token (peek st)))

let expect st tok msg =
  if peek st = tok then advance st else fail st ("expected " ^ msg)

let kw st k = match peek st with Lexer.IDENT w when w = k -> true | _ -> false

let eat_kw st k = if kw st k then (advance st; true) else false

let expect_kw st k = if not (eat_kw st k) then fail st ("expected " ^ String.uppercase_ascii k)

let ident st =
  match peek st with
  | Lexer.IDENT w when not (Lexer.is_keyword w) ->
      advance st;
      w
  | Lexer.IDENT w ->
      (* allow a few non-reserved words as identifiers *)
      if List.mem w [ "count"; "sum"; "avg"; "min"; "max"; "vt"; "period" ] then (
        advance st;
        w)
      else fail st (Printf.sprintf "unexpected keyword %s" w)
  | _ -> fail st "expected identifier"

let agg_names = [ "count"; "sum"; "avg"; "min"; "max" ]

(* --- expressions, by descending precedence --- *)

let rec parse_expr st = parse_or st

and parse_or st =
  let lhs = parse_and st in
  if eat_kw st "or" then Or (lhs, parse_or st) else lhs

and parse_and st =
  let lhs = parse_not st in
  if eat_kw st "and" then And (lhs, parse_and st) else lhs

and parse_not st =
  if eat_kw st "not" then Not (parse_not st) else parse_predicate st

and parse_predicate st =
  let lhs = parse_additive st in
  match peek st with
  | Lexer.EQ -> advance st; Cmp (Eq, lhs, parse_additive st)
  | Lexer.NE -> advance st; Cmp (Ne, lhs, parse_additive st)
  | Lexer.LT -> advance st; Cmp (Lt, lhs, parse_additive st)
  | Lexer.LE -> advance st; Cmp (Le, lhs, parse_additive st)
  | Lexer.GT -> advance st; Cmp (Gt, lhs, parse_additive st)
  | Lexer.GE -> advance st; Cmp (Ge, lhs, parse_additive st)
  | Lexer.IDENT "is" ->
      advance st;
      if eat_kw st "not" then (
        expect_kw st "null";
        Is_not_null lhs)
      else (
        expect_kw st "null";
        Is_null lhs)
  | Lexer.IDENT "like" ->
      advance st;
      (match peek st with
      | Lexer.STRING p ->
          advance st;
          Like (lhs, p)
      | _ -> fail st "LIKE expects a string pattern")
  | Lexer.IDENT "not" when peek2 st = Lexer.IDENT "like" ->
      advance st;
      advance st;
      (match peek st with
      | Lexer.STRING p ->
          advance st;
          Not (Like (lhs, p))
      | _ -> fail st "NOT LIKE expects a string pattern")
  | Lexer.IDENT "not" when peek2 st = Lexer.IDENT "in" ->
      advance st;
      advance st;
      Not (parse_in lhs st)
  | Lexer.IDENT "not" when peek2 st = Lexer.IDENT "between" ->
      advance st;
      advance st;
      Not (parse_between lhs st)
  | Lexer.IDENT "in" ->
      advance st;
      parse_in lhs st
  | Lexer.IDENT "between" ->
      advance st;
      parse_between lhs st
  | _ -> lhs

and parse_in lhs st =
  expect st Lexer.LPAREN "(";
  let rec items acc =
    let e = parse_additive st in
    if peek st = Lexer.COMMA then (
      advance st;
      items (e :: acc))
    else List.rev (e :: acc)
  in
  let vs = items [] in
  expect st Lexer.RPAREN ")";
  In_list (lhs, vs)

and parse_between lhs st =
  let lo = parse_additive st in
  expect_kw st "and";
  let hi = parse_additive st in
  Between (lhs, lo, hi)

and parse_additive st =
  let rec go lhs =
    match peek st with
    | Lexer.PLUS -> advance st; go (Bin (Add, lhs, parse_multiplicative st))
    | Lexer.MINUS -> advance st; go (Bin (Sub, lhs, parse_multiplicative st))
    | _ -> lhs
  in
  go (parse_multiplicative st)

and parse_multiplicative st =
  let rec go lhs =
    match peek st with
    | Lexer.STAR -> advance st; go (Bin (Mul, lhs, parse_unary st))
    | Lexer.SLASH -> advance st; go (Bin (Div, lhs, parse_unary st))
    | Lexer.PERCENT -> advance st; go (Bin (Mod, lhs, parse_unary st))
    | _ -> lhs
  in
  go (parse_unary st)

and parse_unary st =
  match peek st with
  | Lexer.MINUS ->
      advance st;
      Neg (parse_unary st)
  | Lexer.PLUS ->
      advance st;
      parse_unary st
  | _ -> parse_primary st

and parse_primary st =
  match peek st with
  | Lexer.INT i -> advance st; Num i
  | Lexer.FLOAT f -> advance st; Fnum f
  | Lexer.STRING s -> advance st; Str s
  | Lexer.LPAREN ->
      advance st;
      let e = parse_expr st in
      expect st Lexer.RPAREN ")";
      e
  | Lexer.IDENT "null" -> advance st; Null
  | Lexer.IDENT "true" -> advance st; Bool true
  | Lexer.IDENT "false" -> advance st; Bool false
  | Lexer.IDENT "case" ->
      advance st;
      let rec branches acc =
        if eat_kw st "when" then (
          let c = parse_expr st in
          expect_kw st "then";
          let r = parse_expr st in
          branches ((c, r) :: acc))
        else List.rev acc
      in
      let bs = branches [] in
      let default = if eat_kw st "else" then Some (parse_expr st) else None in
      expect_kw st "end";
      Case (bs, default)
  | Lexer.IDENT f when List.mem f agg_names && peek2 st = Lexer.LPAREN ->
      let pos = cur_pos st in
      advance st;
      advance st;
      let arg =
        if peek st = Lexer.STAR then (
          advance st;
          Star)
        else Arg (parse_expr st)
      in
      expect st Lexer.RPAREN ")";
      Agg_call (f, arg, pos)
  | Lexer.IDENT w when not (Lexer.is_keyword w) ->
      let pos = cur_pos st in
      advance st;
      if peek st = Lexer.DOT then (
        advance st;
        let col = ident st in
        Ref ([ w; col ], pos))
      else Ref ([ w ], pos)
  | _ -> fail st "expected expression"

(* --- queries --- *)

let rec parse_query st = parse_set_expr st

and parse_set_expr st =
  let lhs = parse_query_primary st in
  match peek st with
  | Lexer.IDENT "union" ->
      advance st;
      let all = eat_kw st "all" in
      Union_q (all, lhs, parse_set_expr st)
  | Lexer.IDENT "except" ->
      advance st;
      let all = eat_kw st "all" in
      Except_q (all, lhs, parse_set_expr st)
  | Lexer.IDENT "intersect" ->
      advance st;
      let all = eat_kw st "all" in
      Intersect_q (all, lhs, parse_set_expr st)
  | _ -> lhs

and parse_query_primary st =
  match peek st with
  | Lexer.IDENT "seq" ->
      advance st;
      expect_kw st "vt";
      let set_mode = eat_kw st "set" in
      let as_of =
        if kw st "as" then (
          advance st;
          expect_kw st "of";
          let first = offset st.src (cur_pos st) in
          let literal () =
            if st.point = None then begin
              let rec stop i =
                if i < String.length st.src && Lexer.is_digit st.src.[i] then
                  stop (i + 1)
                else i
              in
              st.point <- Some (first, stop (offset st.src (cur_pos st)))
            end;
            advance st
          in
          match peek st with
          | Lexer.INT t ->
              literal ();
              Some t
          | Lexer.MINUS -> (
              advance st;
              match peek st with
              | Lexer.INT t ->
                  literal ();
                  Some (-t)
              | _ -> fail st "AS OF expects an integer time point")
          | _ -> fail st "AS OF expects an integer time point")
        else None
      in
      expect st Lexer.LPAREN "(";
      let q = parse_query st in
      expect st Lexer.RPAREN ")";
      (match (set_mode, as_of) with
      | true, Some _ -> fail st "SEQ VT SET cannot be combined with AS OF"
      | true, None -> Seq_vt_set q
      | false, Some t -> Seq_vt_as_of (t, q)
      | false, None -> Seq_vt q)
  | Lexer.LPAREN ->
      advance st;
      let q = parse_query st in
      expect st Lexer.RPAREN ")";
      q
  | Lexer.IDENT "select" -> parse_select st
  | _ -> fail st "expected SELECT, SEQ VT or parenthesized query"

and parse_select st =
  expect_kw st "select";
  let distinct = eat_kw st "distinct" in
  let rec items acc =
    let item =
      if peek st = Lexer.STAR then (
        advance st;
        Star_item)
      else
        let e = parse_expr st in
        let alias =
          if eat_kw st "as" then Some (ident st)
          else
            match peek st with
            | Lexer.IDENT w
              when (not (Lexer.is_keyword w))
                   || List.mem w [ "count"; "sum"; "avg"; "min"; "max" ] ->
                Some (ident st)
            | _ -> None
        in
        Item { item_expr = e; item_alias = alias }
    in
    if peek st = Lexer.COMMA then (
      advance st;
      items (item :: acc))
    else List.rev (item :: acc)
  in
  let items = items [] in
  let from =
    if eat_kw st "from" then parse_from st
    else fail st "expected FROM (queries without FROM are not supported)"
  in
  let where = if eat_kw st "where" then Some (parse_expr st) else None in
  let group_by =
    if kw st "group" then (
      advance st;
      expect_kw st "by";
      let rec exprs acc =
        let e = parse_expr st in
        if peek st = Lexer.COMMA then (
          advance st;
          exprs (e :: acc))
        else List.rev (e :: acc)
      in
      exprs [])
    else []
  in
  let having = if eat_kw st "having" then Some (parse_expr st) else None in
  Select_q { distinct; items; from; where; group_by; having }

and parse_from st =
  let first = parse_from_item st in
  let rec more acc =
    match peek st with
    | Lexer.COMMA ->
        advance st;
        more ((parse_from_item st, None) :: acc)
    | Lexer.IDENT "cross" ->
        advance st;
        expect_kw st "join";
        more ((parse_from_item st, None) :: acc)
    | Lexer.IDENT "inner" | Lexer.IDENT "join" ->
        let _ = eat_kw st "inner" in
        expect_kw st "join";
        let item = parse_from_item st in
        expect_kw st "on";
        let cond = parse_expr st in
        more ((item, Some cond) :: acc)
    | _ -> List.rev acc
  in
  more [ (first, None) ]

and parse_from_item st =
  match peek st with
  | Lexer.LPAREN ->
      advance st;
      let q = parse_query st in
      expect st Lexer.RPAREN ")";
      let _ = eat_kw st "as" in
      let alias = ident st in
      Subquery { sub = q; sub_alias = alias }
  | _ ->
      let name = ident st in
      let alias =
        if eat_kw st "as" then Some (ident st)
        else
          match peek st with
          | Lexer.IDENT w when not (Lexer.is_keyword w) -> Some (ident st)
          | _ -> None
      in
      Table { name; alias }

(* --- statements --- *)

let parse_ty st =
  match peek st with
  | Lexer.IDENT ("int" | "integer") -> advance st; Tkr_relation.Value.TInt
  | Lexer.IDENT ("float" | "real") -> advance st; Tkr_relation.Value.TFloat
  | Lexer.IDENT ("text" | "varchar") ->
      advance st;
      (* optional (n) length, ignored *)
      if peek st = Lexer.LPAREN then (
        advance st;
        (match peek st with Lexer.INT _ -> advance st | _ -> fail st "length");
        expect st Lexer.RPAREN ")");
      Tkr_relation.Value.TStr
  | Lexer.IDENT ("bool" | "boolean") -> advance st; Tkr_relation.Value.TBool
  | _ -> fail st "expected a type (int, float, text, bool)"

(* [FOR PORTION OF <ident> FROM <int> TO <int>] *)
let parse_portion st =
  if kw st "for" then (
    advance st;
    expect_kw st "portion";
    expect_kw st "of";
    let _period_name = ident st in
    expect_kw st "from";
    let a =
      match peek st with
      | Lexer.INT a ->
          advance st;
          a
      | _ -> fail st "FOR PORTION OF expects integer bounds"
    in
    expect_kw st "to";
    let b =
      match peek st with
      | Lexer.INT b ->
          advance st;
          b
      | _ -> fail st "FOR PORTION OF expects integer bounds"
    in
    Some (a, b))
  else None

let rec parse_statement st =
  match peek st with
  | Lexer.IDENT "explain" ->
      advance st;
      let analyze = eat_kw st "analyze" in
      (* optional parens around the whole target statement, so that
         [EXPLAIN (q ORDER BY ...)] keeps the ORDER BY with the query *)
      let target =
        if peek st = Lexer.LPAREN then (
          advance st;
          let s = parse_statement st in
          expect st Lexer.RPAREN ")";
          s)
        else parse_statement st
      in
      Explain { analyze; target }
  | Lexer.IDENT ("check" | "lint") ->
      advance st;
      let target =
        if peek st = Lexer.LPAREN then (
          advance st;
          let s = parse_statement st in
          expect st Lexer.RPAREN ")";
          s)
        else parse_statement st
      in
      Check { target }
  | Lexer.IDENT "create" ->
      advance st;
      expect_kw st "table";
      let tbl_name = ident st in
      expect st Lexer.LPAREN "(";
      let rec cols acc =
        let c = ident st in
        let ty = parse_ty st in
        if peek st = Lexer.COMMA then (
          advance st;
          cols ((c, ty) :: acc))
        else List.rev ((c, ty) :: acc)
      in
      let cols = cols [] in
      expect st Lexer.RPAREN ")";
      let period =
        if eat_kw st "period" then (
          expect st Lexer.LPAREN "(";
          let b = ident st in
          expect st Lexer.COMMA ",";
          let e = ident st in
          expect st Lexer.RPAREN ")";
          Some (b, e))
        else None
      in
      Create_table { tbl_name; cols; period }
  | Lexer.IDENT "insert" ->
      advance st;
      expect_kw st "into";
      let ins_name = ident st in
      expect_kw st "values";
      let rec rows acc =
        expect st Lexer.LPAREN "(";
        let rec vals acc =
          let e = parse_expr st in
          if peek st = Lexer.COMMA then (
            advance st;
            vals (e :: acc))
          else List.rev (e :: acc)
        in
        let row = vals [] in
        expect st Lexer.RPAREN ")";
        if peek st = Lexer.COMMA then (
          advance st;
          rows (row :: acc))
        else List.rev (row :: acc)
      in
      Insert { ins_name; rows = rows [] }
  | Lexer.IDENT "drop" ->
      advance st;
      expect_kw st "table";
      Drop_table (ident st)
  | Lexer.IDENT "update" ->
      advance st;
      let upd_name = ident st in
      let portion = parse_portion st in
      expect_kw st "set";
      let rec sets acc =
        let col = ident st in
        expect st Lexer.EQ "=";
        let e = parse_expr st in
        if peek st = Lexer.COMMA then (
          advance st;
          sets ((col, e) :: acc))
        else List.rev ((col, e) :: acc)
      in
      let sets = sets [] in
      let upd_where = if eat_kw st "where" then Some (parse_expr st) else None in
      Update { upd_name; portion; sets; upd_where }
  | Lexer.IDENT "delete" ->
      advance st;
      expect_kw st "from";
      let del_name = ident st in
      let del_portion = parse_portion st in
      let del_where = if eat_kw st "where" then Some (parse_expr st) else None in
      Delete { del_name; del_portion; del_where }
  | _ ->
      let origin = Some (cur_pos st) in
      st.point <- None;
      let q = parse_query st in
      let as_of_span = match q with Seq_vt_as_of _ -> st.point | _ -> None in
      let order_by =
        if kw st "order" then (
          advance st;
          expect_kw st "by";
          let rec items acc =
            let e = parse_expr st in
            let desc =
              if eat_kw st "desc" then true
              else (
                ignore (eat_kw st "asc");
                false)
            in
            if peek st = Lexer.COMMA then (
              advance st;
              items ({ ord_expr = e; ord_desc = desc } :: acc))
            else List.rev ({ ord_expr = e; ord_desc = desc } :: acc)
          in
          items [])
        else []
      in
      let limit =
        if eat_kw st "limit" then
          match peek st with
          | Lexer.INT i ->
              advance st;
              Some i
          | _ -> fail st "LIMIT expects an integer"
        else None
      in
      Query { q; order_by; limit; origin; as_of_span }

(** Parse a single statement (a trailing semicolon is allowed). *)
let start sql = { toks = Lexer.tokenize_pos sql; src = sql; point = None }

let statement (sql : string) : statement =
  let st = start sql in
  let s = parse_statement st in
  ignore (if peek st = Lexer.SEMI then (advance st; true) else false);
  if peek st <> Lexer.EOF then fail st "trailing input after statement";
  s

(** Parse a ;-separated script. *)
let script (sql : string) : statement list =
  let st = start sql in
  let rec go acc =
    if peek st = Lexer.EOF then List.rev acc
    else
      let s = parse_statement st in
      let rec semis () =
        if peek st = Lexer.SEMI then (
          advance st;
          semis ())
      in
      semis ();
      go (s :: acc)
  in
  go []

(** Abstract syntax of the supported SQL subset.

    The subset covers everything the paper's workloads need: SELECT with
    expressions, aliases, WHERE, GROUP BY/HAVING, DISTINCT, multi-table
    FROM with JOIN ... ON, subqueries in FROM, UNION/EXCEPT/INTERSECT
    [ALL], ORDER BY/LIMIT at statement level, aggregate functions
    (count/sum/avg/min/max), CASE, LIKE, IN, BETWEEN — plus the paper's
    [SEQ VT (...)] snapshot-semantics block and simple DDL (CREATE TABLE /
    INSERT) for the CLI and examples. *)

type binop = Add | Sub | Mul | Div | Mod
type cmpop = Eq | Ne | Lt | Le | Gt | Ge

type pos = Tkr_check.Diagnostic.pos = { line : int; col : int }
(** Source position ([line:col], 1-based) of the node in the SQL text;
    carried on the nodes semantic errors anchor to. *)

type expr =
  | Num of int
  | Fnum of float
  | Str of string
  | Bool of bool
  | Null
  | Ref of string list * pos  (** [a] or [t; a] for [t.a] *)
  | Bin of binop * expr * expr
  | Neg of expr
  | Cmp of cmpop * expr * expr
  | And of expr * expr
  | Or of expr * expr
  | Not of expr
  | Is_null of expr
  | Is_not_null of expr
  | Like of expr * string
  | In_list of expr * expr list
  | Between of expr * expr * expr
  | Case of (expr * expr) list * expr option
  | Agg_call of string * agg_arg * pos

and agg_arg = Star | Arg of expr

type select_item = { item_expr : expr; item_alias : string option }

type from_item =
  | Table of { name : string; alias : string option }
  | Subquery of { sub : query; sub_alias : string }

and select = {
  distinct : bool;
  items : item list;
  from : (from_item * expr option) list;
      (** FROM items with optional JOIN ... ON conditions; the first item's
          condition is always [None] *)
  where : expr option;
  group_by : expr list;
  having : expr option;
}

and item = Star_item | Item of select_item

and query =
  | Select_q of select
  | Union_q of bool * query * query  (** [true] = ALL *)
  | Except_q of bool * query * query
  | Intersect_q of bool * query * query
  | Seq_vt of query  (** snapshot-semantics block *)
  | Seq_vt_as_of of int * query
      (** timeslice: the snapshot of a snapshot query at one time point —
          [SEQ VT AS OF t (...)] returns a non-temporal relation *)
  | Seq_vt_set of query
      (** snapshot semantics under {e set} semantics ([SEQ VT SET (...)]):
          every snapshot is deduplicated, difference is set difference —
          the B-instance of the framework (TSQL2-style) *)

type order_item = { ord_expr : expr; ord_desc : bool }

type statement =
  | Query of {
      q : query;
      order_by : order_item list;
      limit : int option;
      origin : pos option;
          (** source position of the statement, for plan-level diagnostics *)
      as_of_span : (int * int) option;
          (** when [q] is a [Seq_vt_as_of], the byte offsets [\[start,
              stop)] of its point's literal (sign included) in the parsed
              text: texts that differ only there share one plan shape *)
    }
  | Create_table of {
      tbl_name : string;
      cols : (string * Tkr_relation.Value.ty) list;
      period : (string * string) option;
          (** PERIOD (begin_col, end_col): registers a period table *)
    }
  | Insert of { ins_name : string; rows : expr list list }
  | Drop_table of string
  | Update of {
      upd_name : string;
      portion : (int * int) option;
          (** [FOR PORTION OF <period> FROM a TO b] (SQL:2011): only the
              overlap with [\[a, b)] is updated; remainders are preserved
              by row splitting *)
      sets : (string * expr) list;
      upd_where : expr option;
    }
  | Delete of {
      del_name : string;
      del_portion : (int * int) option;
      del_where : expr option;
    }
  | Explain of { analyze : bool; target : statement }
      (** [EXPLAIN (stmt)] renders the final plan; [EXPLAIN ANALYZE (stmt)]
          also executes it and annotates every operator with rows in/out,
          internals and elapsed time *)
  | Check of { target : statement }
      (** [CHECK (stmt)] (alias [LINT]) runs the static analyzer over the
          statement without executing it and renders its diagnostics *)

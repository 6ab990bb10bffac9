(** Typed diagnostics with stable [TKR] error codes.

    Every user-facing failure of the SQL front end, the middleware and the
    static analyzer ({!Typecheck}, {!Plan_check}, {!Lint}) is a value of
    {!t}: a stable code, a severity, an optional source position
    ([line:col] in the SQL text) and a message.  Diagnostics render as
    compiler-style text ([error[TKR101] at 1:8: ...]) and as JSON (via
    [Tkr_obs.Json]) for tooling. *)

type pos = { line : int; col : int }

let pp_pos ppf { line; col } = Format.fprintf ppf "%d:%d" line col

type severity = Error | Warning | Info

let severity_name = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

type t = {
  code : string;  (** stable code, e.g. ["TKR101"] *)
  severity : severity;
  pos : pos option;  (** position in the SQL source text, when known *)
  msg : string;
  hint : string option;  (** optional remediation hint *)
}

exception Fail of t

(* Build a diagnostic from a format string. *)
let v ?(severity = Error) ?pos ?hint code fmt =
  Format.kasprintf (fun msg -> { code; severity; pos; msg; hint }) fmt

let error ?pos ?hint code fmt = v ~severity:Error ?pos ?hint code fmt
let warning ?pos ?hint code fmt = v ~severity:Warning ?pos ?hint code fmt

(* Raise [Fail] with a formatted error diagnostic. *)
let fail ?pos ?hint code fmt =
  Format.kasprintf
    (fun msg -> raise (Fail { code; severity = Error; pos; msg; hint }))
    fmt

let is_error d = d.severity = Error

let pp ppf d =
  Format.fprintf ppf "%s[%s]" (severity_name d.severity) d.code;
  (match d.pos with Some p -> Format.fprintf ppf " at %a" pp_pos p | None -> ());
  Format.fprintf ppf ": %s" d.msg;
  match d.hint with
  | Some h -> Format.fprintf ppf " (hint: %s)" h
  | None -> ()

let to_string d = Format.asprintf "%a" pp d

let to_json d : Tkr_obs.Json.t =
  let open Tkr_obs.Json in
  Obj
    ([ ("code", Str d.code); ("severity", Str (severity_name d.severity)) ]
    @ (match d.pos with
      | Some p ->
          [ ("line", Int p.line); ("col", Int p.col) ]
      | None -> [])
    @ [ ("message", Str d.msg) ]
    @ match d.hint with Some h -> [ ("hint", Str h) ] | None -> [])

(* ---- reports: lists of diagnostics ---- *)

let count_errors ?(werror = false) (ds : t list) =
  List.length
    (List.filter (fun d -> is_error d || (werror && d.severity = Warning)) ds)

let sort (ds : t list) : t list =
  let sev_rank = function Error -> 0 | Warning -> 1 | Info -> 2 in
  (* positioned diagnostics first (in source order), unpositioned last,
     so multi-statement lint reports are deterministic and readable *)
  let pos_key = function
    | Some { line; col } -> (0, line, col)
    | None -> (1, 0, 0)
  in
  List.stable_sort
    (fun a b ->
      match Int.compare (sev_rank a.severity) (sev_rank b.severity) with
      | 0 -> (
          match String.compare a.code b.code with
          | 0 -> (
              match compare (pos_key a.pos) (pos_key b.pos) with
              | 0 -> String.compare a.msg b.msg
              | c -> c)
          | c -> c)
      | c -> c)
    ds

let report_to_text (ds : t list) : string =
  match ds with
  | [] -> "OK: no diagnostics"
  | ds ->
      let errs = count_errors ds and all = List.length ds in
      Format.asprintf "@[<v>%a@,%d diagnostic%s (%d error%s)@]"
        Fmt.(list ~sep:(any "@,") pp)
        (sort ds) all
        (if all = 1 then "" else "s")
        errs
        (if errs = 1 then "" else "s")

let report_to_json (ds : t list) : Tkr_obs.Json.t =
  let open Tkr_obs.Json in
  Obj
    [
      ("errors", Int (count_errors ds));
      ("warnings",
       Int (List.length (List.filter (fun d -> d.severity = Warning) ds)));
      ("diagnostics", List (List.map to_json (sort ds)));
    ]

(* ---- the code registry ---- *)

(** Every stable code with a one-line description.  The golden test suite
    asserts each registered code is triggered at least once. *)
let registry : (string * string) list =
  [
    (* front end: names, syntax, statement shape *)
    ("TKR001", "unknown column");
    ("TKR002", "ambiguous column reference");
    ("TKR003", "unknown table");
    ("TKR004", "syntax error");
    ("TKR005", "lexical error");
    ("TKR010", "misplaced SEQ VT block");
    ("TKR011", "set-operation branches have incompatible schemas");
    ("TKR012", "IN list elements must be literals");
    ("TKR013", "aggregate call not allowed in this context");
    ("TKR014", "malformed aggregate call");
    ("TKR015", "unknown aggregate function");
    ("TKR016", "HAVING without GROUP BY or aggregates");
    ("TKR017", "column must appear in GROUP BY or an aggregate");
    ("TKR018", "SELECT * cannot be combined with GROUP BY");
    ("TKR019", "invalid ORDER BY item");
    ("TKR020", "table under SEQ VT is not a period table");
    ("TKR021", "statement kind mismatch");
    ("TKR022", "INSERT arity mismatch");
    ("TKR023", "INSERT values must be literals");
    ("TKR024", "invalid PERIOD declaration");
    ("TKR025", "invalid FOR PORTION OF");
    ("TKR026", "INSERT or UPDATE period value must be a non-NULL integer");
    (* type checking (pass 1) *)
    ("TKR101", "arithmetic on non-numeric operand");
    ("TKR102", "comparison between incompatible types");
    ("TKR103", "condition is not boolean");
    ("TKR104", "LIKE on non-string operand");
    ("TKR105", "IN list element type incompatible with subject");
    ("TKR106", "CASE branches have incompatible types");
    ("TKR107", "aggregate over non-numeric input");
    ("TKR108", "union/difference operands have incompatible schemas");
    ("TKR109", "column reference out of range");
    ("TKR110", "comparison with NULL literal is always UNKNOWN");
    (* plan invariants (pass 2) *)
    ("TKR201", "physical operator in logical plan");
    ("TKR202", "encoded relation must end with two int period columns");
    ("TKR203", "split group index out of range");
    ("TKR204", "rewritten difference operands must be aligned split pairs");
    ("TKR205", "rewritten aggregation input must be endpoint-split");
    ("TKR206", "plan output is not coalesced");
    ("TKR207", "split-aggregate gap coverage must match its grouping");
    (* snapshot-semantics lint (pass 3) *)
    ("TKR301", "AG bug: ungrouped aggregation without gap coverage");
    ("TKR302", "BD bug: difference compiled as NOT EXISTS / set semantics");
    ("TKR303", "snapshot difference unsupported in this style");
    ("TKR304", "output encoding is not coalesced (no unique encoding)");
    (* abstract interpretation (pass 4, {!Absint}) *)
    ("TKR401", "selection predicate is unsatisfiable");
    ("TKR402", "query provably returns no rows");
    ("TKR403", "selection conjunct implied by inferred bounds");
    ("TKR404", "DISTINCT over provably duplicate-free input");
    ("TKR405", "COALESCE over provably coalesced input");
    ("TKR406", "join predicate is unsatisfiable");
    ("TKR407", "selection admits only degenerate periods");
    ("TKR408", "AS OF timeslice outside the stored time bounds");
  ]

let describe code = List.assoc_opt code registry

let () =
  Printexc.register_printer (function
    | Fail d -> Some (to_string d)
    | _ -> None)

(** Export a stored benchmark report to external tooling: OpenMetrics
    text for Prometheus scrapes/pushgateways, folded stacks for
    flamegraph.pl / speedscope. *)

module Json = Tkr_obs.Json
module Trace = Tkr_obs.Trace
module Openmetrics = Tkr_obs.Openmetrics

(* the trace trees a producer stored under "operator_traces":
   [{ "query": name, "trace": [span...] }, ...] *)
let stored_traces (rep : Bench_result.report) : (string * Trace.span list) list =
  match List.assoc_opt "operator_traces" rep.extra with
  | Some (Json.List items) ->
      List.map
        (fun item ->
          let name =
            match Option.bind (Json.member "query" item) Json.to_string_opt with
            | Some q -> q
            | None -> "query"
          in
          let spans =
            match Json.member "trace" item with
            | Some (Json.List roots) -> List.map Trace.of_json_value roots
            | _ -> []
          in
          (name, spans))
        items
  | _ -> []

(** The report's results as one OpenMetrics document:
    [tkr_bench_wall_ns_per_run{suite,test}] and [tkr_bench_runs] gauges,
    plus one [tkr_bench_counter{suite,test,counter}] gauge per recorded
    operator/GC counter.  Environment metadata rides along as an
    info-style gauge. *)
let to_openmetrics (rep : Bench_result.report) : string =
  let labels (r : Bench_result.result) =
    [ ("suite", r.suite); ("test", r.name) ]
  in
  let env = rep.env in
  Openmetrics.document
    [
      Openmetrics.gauge ~help:"benchmark environment" "tkr_bench_env_info"
        [
          ( [
              ("ocaml_version", env.Env.ocaml_version);
              ("git_sha", env.Env.git_sha);
              ("hostname", env.Env.hostname);
              ("os_type", env.Env.os_type);
              ("source", rep.source);
            ],
            1.0 );
        ];
      Openmetrics.gauge ~help:"mean wall time per run"
        "tkr_bench_wall_ns_per_run"
        (List.map
           (fun r -> (labels r, r.Bench_result.wall_ns_per_run))
           rep.results);
      Openmetrics.gauge ~help:"samples behind the mean" "tkr_bench_runs"
        (List.map
           (fun r -> (labels r, float_of_int r.Bench_result.runs))
           rep.results);
      Openmetrics.gauge ~help:"operator and GC counters" "tkr_bench_counter"
        (List.concat_map
           (fun r ->
             List.map
               (fun (k, v) -> (labels r @ [ ("counter", k) ], v))
               r.Bench_result.counters)
           rep.results);
    ]

(** Every stored operator trace as folded stacks, each root prefixed with
    its query name ([query;operator;... <self-ns>]).  Empty when the
    report carries no [operator_traces]. *)
let to_folded (rep : Bench_result.report) : string =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (query, spans) ->
      List.iter
        (fun sp ->
          String.split_on_char '\n' (Trace.to_folded sp)
          |> List.iter (fun line ->
                 if line <> "" then (
                   Buffer.add_string buf query;
                   Buffer.add_char buf ';';
                   Buffer.add_string buf line;
                   Buffer.add_char buf '\n')))
        spans)
    (stored_traces rep);
  Buffer.contents buf

(** OpenMetrics / Prometheus text exposition of a {!Metrics} registry.

    Counters become [<name>_total] counters, histograms the classic
    cumulative-bucket encoding ([<name>_bucket{le="..."}] up to
    [le="+Inf"], plus [_sum] and [_count]).  Metric names are sanitized
    to the OpenMetrics grammar; the document ends with the mandatory
    [# EOF] marker. *)

(* OpenMetrics names: [a-zA-Z_:][a-zA-Z0-9_:]* — everything else maps
   to '_' (a leading digit gets a '_' prefix) *)
let sanitize (name : string) : string =
  let ok i c =
    match c with
    | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true
    | '0' .. '9' -> i > 0
    | _ -> false
  in
  let buf = Buffer.create (String.length name + 1) in
  String.iteri
    (fun i c ->
      if ok i c then Buffer.add_char buf c
      else if i = 0 && (match c with '0' .. '9' -> true | _ -> false) then (
        Buffer.add_char buf '_';
        Buffer.add_char buf c)
      else Buffer.add_char buf '_')
    name;
  Buffer.contents buf

(* Label values: escape backslash, double quote, newline *)
let escape_label (v : string) : string =
  let buf = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let labels_to_string = function
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) ->
               Printf.sprintf "%s=\"%s\"" (sanitize k) (escape_label v))
             labels)
      ^ "}"

(* a float rendered the way Prometheus clients do: integral values
   without a fraction, everything else with full precision *)
let float_repr (f : float) : string =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

(** One sample line: [name{labels} value]. *)
let sample ?(labels = []) name (value : float) : string =
  Printf.sprintf "%s%s %s\n" (sanitize name) (labels_to_string labels)
    (float_repr value)

(** One [# TYPE] header line. *)
let type_line name (ty : string) : string =
  Printf.sprintf "# TYPE %s %s\n" (sanitize name) ty

(** A gauge family with one sample per (labels, value) row: levels owned
    outside any registry (the server's, the bench exporter's). *)
let gauge ?(help = "") name (rows : ((string * string) list * float) list) :
    string =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (type_line name "gauge");
  if help <> "" then
    Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" (sanitize name) help);
  List.iter
    (fun (labels, v) -> Buffer.add_string buf (sample ~labels name v))
    rows;
  Buffer.contents buf

(** A counter family of one sample per (labels, value) row, exported as
    [<name>_total]. *)
let counters name (rows : ((string * string) list * int) list) : string =
  let name = name ^ "_total" in
  String.concat ""
    (type_line name "counter"
    :: List.map
         (fun (labels, v) -> sample ~labels name (float_of_int v))
         rows)

(** A counter family of one sample, exported as [<name>_total]. *)
let counter name (value : int) : string = counters name [ ([], value) ]

let render_metric buf name (v : Metrics.view) =
  match v with
  | Metrics.V_counter c -> Buffer.add_string buf (counter name c)
  | Metrics.V_histogram h ->
      let bounds = Metrics.histogram_bounds h in
      let buckets = Metrics.histogram_buckets h in
      Buffer.add_string buf (type_line name "histogram");
      let cumulative = ref 0 in
      Array.iteri
        (fun i count ->
          cumulative := !cumulative + count;
          let le =
            if i < Array.length bounds then string_of_int bounds.(i) else "+Inf"
          in
          Buffer.add_string buf
            (sample ~labels:[ ("le", le) ] (name ^ "_bucket")
               (float_of_int !cumulative)))
        buckets;
      Buffer.add_string buf
        (sample (name ^ "_sum") (float_of_int (Metrics.histogram_sum h)));
      Buffer.add_string buf
        (sample (name ^ "_count")
           (float_of_int (Metrics.histogram_observations h)))

(** The whole registry as an OpenMetrics document (with [# EOF]).
    [extra] families (pre-rendered with {!gauge}) are appended before the
    terminator — the hook for info-style metrics that live outside any
    registry (build info, environment). *)
let of_metrics ?(extra = []) (m : Metrics.t) : string =
  let buf = Buffer.create 1024 in
  List.iter
    (fun name ->
      match Metrics.view m name with
      | Some v -> render_metric buf name v
      | None -> ())
    (Metrics.names m);
  List.iter (Buffer.add_string buf) extra;
  Buffer.add_string buf "# EOF\n";
  Buffer.contents buf

(** Wrap pre-rendered families ({!gauge} output) into a document. *)
let document (families : string list) : string =
  String.concat "" families ^ "# EOF\n"

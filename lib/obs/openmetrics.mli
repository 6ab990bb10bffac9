(** OpenMetrics / Prometheus text exposition.

    Counters export as [<name>_total], histograms as cumulative buckets
    ([<name>_bucket{le="..."}], [_sum], [_count]).  Names are sanitized
    to the OpenMetrics grammar and every document ends with [# EOF]. *)

val sanitize : string -> string
(** Map a metric name onto [[a-zA-Z_:][a-zA-Z0-9_:]*]. *)

val escape_label : string -> string
(** Escape a label value (backslash, quote, newline). *)

val sample : ?labels:(string * string) list -> string -> float -> string
(** One exposition line: [name{labels} value]. *)

val type_line : string -> string -> string
(** A [# TYPE name kind] header line. *)

val counter : string -> int -> string
(** A counter family of one sample, exported as [<name>_total] like a
    registry counter — for counts owned outside any registry. *)

val counters : string -> ((string * string) list * int) list -> string
(** A counter family of one sample per (labels, value) row, exported as
    [<name>_total] — a labelled {!counter}. *)

val gauge :
  ?help:string -> string -> ((string * string) list * float) list -> string
(** A gauge family, one sample per (labels, value) row. *)

val of_metrics : ?extra:string list -> Metrics.t -> string
(** A whole registry as an OpenMetrics document (ending in [# EOF]).
    [extra] pre-rendered families ({!gauge} output) are appended before
    the terminator. *)

val document : string list -> string
(** Concatenate pre-rendered families ({!gauge} output) and terminate
    with [# EOF]. *)

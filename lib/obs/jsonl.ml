(** JSON Lines output: the sink type behind both views of the serve
    tier's observability stream ([Tkr_rec.Record]). *)

type sink =
  | Null  (** discard everything *)
  | Chan of out_channel  (** one flushed line per document *)
  | Fn of (Json.t -> unit)  (** tests and embedders *)

(** Emit one document.  Not synchronized: owners serialize writes. *)
let write sink (j : Json.t) =
  match sink with
  | Null -> ()
  | Chan oc ->
      output_string oc (Json.to_string j);
      output_char oc '\n';
      Stdlib.flush oc
  | Fn f -> f j

(** Flush a channel sink, ignoring a channel that is already closed. *)
let flush = function
  | Chan oc -> ( try Stdlib.flush oc with Sys_error _ -> ())
  | Null | Fn _ -> ()

(** Pure rendering for [tkr_cli top]: scrape JSON in, one text frame
    out.  Keeping this side-effect free is what makes the console
    golden-testable, zero-window edge cases included. *)

module Json = Tkr_obs.Json

let jint j key =
  Option.value ~default:0 (Option.bind (Json.member key j) Json.to_int_opt)

let jstr j key =
  Option.value ~default:"" (Option.bind (Json.member key j) Json.to_string_opt)

let jobj j key = Option.value ~default:(Json.Obj []) (Json.member key j)
let mib b = float_of_int b /. (1024. *. 1024.)

let truncate_stmt s =
  let s = String.map (function '\n' | '\t' -> ' ' | c -> c) s in
  if String.length s <= 48 then s else String.sub s 0 45 ^ "..."

(* request rate over the window, rendered defensively: before the first
   full window (prev_requests < 0) or with a degenerate interval there
   is no rate to show — print "-" rather than nan/inf *)
let qps_text ~interval ~prev_requests ~requests =
  if prev_requests < 0 || interval <= 0.0 then "-"
  else
    Printf.sprintf "%.1f" (float_of_int (requests - prev_requests) /. interval)

(* cache hit rate as a percentage; 0.0 (never nan) when nothing has
   looked the cache up yet *)
let hit_rate_pct ~hits ~misses =
  let looked = hits + misses in
  if looked <= 0 then 0.0 else 100. *. float_of_int hits /. float_of_int looked

let frame ~host ~port ~interval ~prev_requests ~stats ~health ~ledger () :
    string =
  let buf = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let requests = jint stats "requests" in
  let lat = jobj stats "latency_us" in
  let cache = jobj stats "cache" in
  pr "tkr top — %s:%d   %s   up %ds\n" host port (jstr health "status")
    (jint stats "uptime_s");
  pr "requests  %d   (%s req/s)   errors %d   busy %d   deadline %d\n"
    requests
    (qps_text ~interval ~prev_requests ~requests)
    (jint stats "errors") (jint stats "busy")
    (jint stats "deadline_exceeded");
  pr "sessions  %d   queue %d   inflight %d\n"
    (jint stats "sessions") (jint stats "queue_depth") (jint stats "inflight");
  pr "latency   p50 %d us   p95 %d us   p99 %d us   (%d samples)\n"
    (jint lat "p50") (jint lat "p95") (jint lat "p99") (jint lat "count");
  pr
    "cache     hit %.1f%%   entries %d   %.1f/%.1f MiB   evictions %d   \
     invalidations %d\n"
    (hit_rate_pct ~hits:(jint cache "hits") ~misses:(jint cache "misses"))
    (jint cache "entries")
    (mib (jint cache "bytes"))
    (mib (jint cache "max_bytes"))
    (jint cache "evictions") (jint cache "invalidations");
  (match Json.member "index" stats with
  | Some (Json.Obj _ as idx) ->
      let enabled =
        match Json.member "enabled" idx with
        | Some (Json.Bool b) -> b
        | _ -> false
      in
      pr
        "index     %s   built %d   rebuilds %d   probes %d   candidates %d\n"
        (if enabled then "on " else "off")
        (jint idx "built") (jint idx "rebuilds") (jint idx "probes")
        (jint idx "candidates")
  | _ -> ());
  (match Json.member "slowest" stats with
  | Some (Json.List (_ :: _ as slow)) ->
      pr "slowest plans:\n";
      pr "  %-14s %6s %9s %9s  %s\n" "fingerprint" "count" "max ms" "avg ms"
        "stmt";
      List.iter
        (fun e ->
          let count = max 1 (jint e "count") in
          pr "  %-14s %6d %9.1f %9.1f  %s\n" (jstr e "fingerprint")
            (jint e "count")
            (float_of_int (jint e "max_us") /. 1000.)
            (float_of_int (jint e "total_us") /. float_of_int count /. 1000.)
            (truncate_stmt (jstr e "stmt")))
        slow
  | _ -> ());
  (match Option.map (fun l -> Json.member "rows" l) ledger with
  | Some (Some (Json.List (_ :: _ as rows))) ->
      pr "ledger (top by wall time):\n";
      pr "  %-14s %6s %9s %9s %6s %9s  %s\n" "fingerprint" "count" "wall ms"
        "p95 ms" "hit%" "rows" "stmt";
      List.iter
        (fun r ->
          pr "  %-14s %6d %9.1f %9.1f %5.1f%% %9d  %s\n" (jstr r "fingerprint")
            (jint r "count")
            (float_of_int (jint r "total_us") /. 1000.)
            (float_of_int (jint r "p95_us") /. 1000.)
            (hit_rate_pct ~hits:(jint r "hits") ~misses:(jint r "misses"))
            (jint r "rows_out")
            (truncate_stmt (jstr r "stmt")))
        rows
  | _ -> ());
  Buffer.contents buf

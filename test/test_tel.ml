(* Tkr_tel: the structured JSONL event log.  Field-level checks through
   an Fn sink with injected clocks, the free disabled sink, rate-limit
   windowing with its synthetic announcement line, and close
   semantics. *)

module Json = Tkr_obs.Json
module Jsonl = Tkr_obs.Jsonl
module Tel = Tkr_tel.Tel

let jstr j key =
  match Option.bind (Json.member key j) Json.to_string_opt with
  | Some s -> s
  | None -> Alcotest.fail (Printf.sprintf "missing string field %s" key)

let jint j key =
  match Option.bind (Json.member key j) Json.to_int_opt with
  | Some i -> i
  | None -> Alcotest.fail (Printf.sprintf "missing int field %s" key)

(* an Fn-sink log with a deterministic clock: mono starts at 0 and the
   wall clock is pinned, so envelope fields are exact *)
let collecting ?rate_limit () =
  let lines = ref [] in
  let t =
    Tel.create
      ~clock:(fun () -> 0L)
      ~wall:(fun () -> 1234.5)
      ?rate_limit
      (Jsonl.Fn (fun j -> lines := j :: !lines))
  in
  (t, fun () -> List.rev !lines)

let test_envelope_and_fields () =
  let t, lines = collecting () in
  Alcotest.(check bool) "enabled" true (Tel.enabled t);
  Tel.emit t (Tel.Conn_open { session = 7 });
  Tel.emit t
    (Tel.Request_start
       { session = 7; req_id = 3; trace_id = "t7-1"; stmt = "SELECT 1" });
  Tel.emit t
    (Tel.Request_finish
       {
         session = 7;
         req_id = 3;
         trace_id = "t7-1";
         status = "ok";
         cached = true;
         elapsed_us = 42;
       });
  Tel.emit t
    (Tel.Slow_query
       {
         trace_id = "t7-1";
         fingerprint = "abcdef012345";
         stmt = "SELECT 1";
         queue_us = 5;
         exec_us = 37;
         total_us = 42;
         disposition = "hit";
       });
  Tel.emit t (Tel.Admission_reject { session = 7; reason = "queue_full" });
  Tel.emit t
    (Tel.Request_finish
       {
         session = 7;
         req_id = 4;
         trace_id = "t7-2";
         status = "INVALID_SQL";
         cached = false;
         elapsed_us = 1;
       });
  match lines () with
  | [ open_; start; finish; slow; reject; failed ] ->
      (* envelope: pinned wall clock in exact integer ms, counting seq *)
      Alcotest.(check int) "ts_ms" 1_234_500 (jint open_ "ts_ms");
      Alcotest.(check int) "mono_ns" 0 (jint open_ "mono_ns");
      Alcotest.(check int) "seq 1" 1 (jint open_ "seq");
      Alcotest.(check int) "seq 2" 2 (jint start "seq");
      Alcotest.(check string) "conn_open event" "conn_open"
        (jstr open_ "event");
      Alcotest.(check string) "debug severity" "debug"
        (jstr open_ "severity");
      (* request events carry the wire trace id *)
      Alcotest.(check string) "start trace" "t7-1" (jstr start "trace_id");
      Alcotest.(check string) "start stmt" "SELECT 1" (jstr start "stmt");
      Alcotest.(check string) "finish trace" "t7-1" (jstr finish "trace_id");
      Alcotest.(check string) "ok is info" "info" (jstr finish "severity");
      Alcotest.(check int) "elapsed" 42 (jint finish "elapsed_us");
      Alcotest.(check string) "slow is warn" "warn" (jstr slow "severity");
      Alcotest.(check string) "slow fingerprint" "abcdef012345"
        (jstr slow "fingerprint");
      Alcotest.(check string) "slow disposition" "hit"
        (jstr slow "disposition");
      Alcotest.(check int) "queue_us" 5 (jint slow "queue_us");
      Alcotest.(check string) "reject is warn" "warn"
        (jstr reject "severity");
      Alcotest.(check string) "reject reason" "queue_full"
        (jstr reject "reason");
      (* a failed request logs at error severity with the wire code *)
      Alcotest.(check string) "error severity" "error"
        (jstr failed "severity");
      Alcotest.(check string) "error status" "INVALID_SQL"
        (jstr failed "status");
      Alcotest.(check int) "emitted" 6 (Tel.emitted t);
      Alcotest.(check int) "nothing dropped" 0 (Tel.dropped t)
  | l -> Alcotest.fail (Printf.sprintf "expected 6 lines, got %d" (List.length l))

let test_disabled_noop () =
  Alcotest.(check bool) "disabled" false (Tel.enabled Tel.disabled);
  Tel.emit Tel.disabled (Tel.Drain { reason = "test" });
  Alcotest.(check int) "no lines" 0 (Tel.emitted Tel.disabled);
  Alcotest.(check int) "no drops" 0 (Tel.dropped Tel.disabled)

let test_rate_limit () =
  (* a stepping clock: the window rolls only when we advance it *)
  let now = ref 0L in
  let lines = ref [] in
  let t =
    Tel.create
      ~clock:(fun () -> !now)
      ~wall:(fun () -> 0.)
      ~rate_limit:2
      (Jsonl.Fn (fun j -> lines := j :: !lines))
  in
  for i = 1 to 5 do
    Tel.emit t (Tel.Epoch_bump { epoch = i })
  done;
  Alcotest.(check int) "ceiling applied" 2 (Tel.emitted t);
  Alcotest.(check int) "excess dropped" 3 (Tel.dropped t);
  (* rolling the window announces the drop count on a synthetic line,
     then admits events again *)
  now := 1_000_000_000L;
  Tel.emit t (Tel.Epoch_bump { epoch = 6 });
  (match List.rev !lines with
  | [ _; _; announce; after ] ->
      Alcotest.(check string) "synthetic line" "rate_limited"
        (jstr announce "event");
      Alcotest.(check int) "announced drops" 3 (jint announce "dropped");
      Alcotest.(check string) "window reopened" "epoch_bump"
        (jstr after "event")
  | l -> Alcotest.fail (Printf.sprintf "expected 4 lines, got %d" (List.length l)));
  Alcotest.(check int) "emitted excludes synthetic" 3 (Tel.emitted t)

let test_close () =
  let t, lines = collecting () in
  Tel.emit t (Tel.Drain { reason = "stop" });
  Tel.close t;
  Tel.close t (* idempotent *);
  Alcotest.(check bool) "closed reads disabled" false (Tel.enabled t);
  Tel.emit t (Tel.Drain { reason = "after close" });
  Alcotest.(check int) "no lines after close" 1 (List.length (lines ()));
  Alcotest.(check int) "emitted frozen" 1 (Tel.emitted t)

let suite =
  ( "telemetry",
    [
      Alcotest.test_case "envelope and event fields" `Quick
        test_envelope_and_fields;
      Alcotest.test_case "disabled sink is a no-op" `Quick test_disabled_noop;
      Alcotest.test_case "rate limiting" `Quick test_rate_limit;
      Alcotest.test_case "close" `Quick test_close;
    ] )

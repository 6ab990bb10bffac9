(** Deterministic replay of a flight recording against a live server.
    See the interface for the ordering and byte-identity contract. *)

module Record = Tkr_rec.Record
module Wire = Tkr_serve.Wire
module Json = Tkr_obs.Json
module Clock = Tkr_obs.Clock

type mismatch = {
  mm_seq : int;
  mm_session : int;
  mm_stmt : string;
  mm_expected : string;
  mm_got : string;
}

type outcome = {
  total : int;
  compared : int;
  matched : int;
  mismatches : mismatch list;
  skipped : int;
  failed : int;
  cached : int;
  wall_ns : float;
  sessions : int;
}

(* requests the capture server rejected before running them (queued past
   their deadline, or refused at admission, busy or draining): an outcome
   of capture-time load, not of the data.  They keep their turn in arrival
   order but are not sent — re-sent without their deadline, a rejected
   write would run at replay and every later read would diverge — nor
   byte-diffed *)
let rejected (e : Record.entry) =
  e.Record.e_status = "DEADLINE_EXCEEDED" || e.Record.e_disposition = "rejected"

let window = 32
(* max in-flight requests per session: the server runs a connection's
   requests one at a time, so the rest wait in the socket *)

(* entries that recorded no table-version vector are writes (DDL/DML and
   meta statements bypass the cache and pin no deps) or errors: they act
   as barriers.  Between two barriers the dependency vector is constant
   — reads commute — so only barriers need strict ordering against the
   rest of the stream *)
let is_barrier (e : Record.entry) = e.Record.e_deps = []

let connect ~host ~port : Unix.file_descr =
  match Tkr_serve.Client.dial ~host ~port () with
  | fd, _sid -> fd
  | exception Tkr_serve.Client.Server_error e ->
      raise
        (Wire.Protocol_error
           (Printf.sprintf "replay connection rejected: %s: %s"
              (Wire.error_code_to_string e.Wire.code)
              e.Wire.message))

(* id and digest of one response frame, from one pass over its
   envelope.  The digest is computed the way capture did: the raw result
   payload bytes of an ok frame (exact, no reparse), or the code/message
   of an error frame.  The payload is scanned, not built. *)
let digest_of_frame (frame : string) : int option * (string * bool) option =
  let module Scan = Json.Scan in
  let c = Scan.cursor frame in
  let id = ref None and status = ref "" and cached = ref false
  and code = ref "" and message = ref "" in
  Scan.fields c (function
    | "id" -> id := Some (Scan.int c)
    | "status" -> status := Scan.string c
    | "cached" -> cached := Scan.bool c
    | "code" -> code := Scan.string c
    | "message" -> message := Scan.string c
    | _ -> Scan.skip c);
  Scan.finish c;
  ( !id,
    match !status with
    | "ok" ->
        Option.map
          (fun payload -> (Record.digest payload, !cached))
          (Wire.ok_frame_payload frame)
    | "error" ->
        Some (Record.digest_error ~code:!code ~message:!message, false)
    | _ -> None )

(* the outcome, once every sent entry was answered or given up *)
let tally entries (got : (string * bool) option array) ~wall_ns ~sessions =
  let compared = ref 0 in
  let matched = ref 0 in
  let skipped = ref 0 in
  let failed = ref 0 in
  let cached = ref 0 in
  let mismatches = ref [] in
  Array.iteri
    (fun gi (e : Record.entry) ->
      (match got.(gi) with
      | Some (_, c) -> if c then incr cached
      | None -> ());
      if rejected e then incr skipped
      else
        match got.(gi) with
        | None -> incr failed
        | Some (d, _) ->
            incr compared;
            if d = e.Record.e_digest then incr matched
            else
              mismatches :=
                {
                  mm_seq = e.Record.e_seq;
                  mm_session = e.Record.e_session;
                  mm_stmt = e.Record.e_stmt;
                  mm_expected = e.Record.e_digest;
                  mm_got = d;
                }
                :: !mismatches)
    entries;
  {
    total = Array.length entries;
    compared = !compared;
    matched = !matched;
    mismatches = List.rev !mismatches;
    skipped = !skipped;
    failed = !failed;
    cached = !cached;
    wall_ns;
    sessions;
  }

(* A recorded session's connection closes once its last entry is
   answered.  The first [max_open] sessions are dialed before the clock
   starts; a later one is dialed when its first entry is sent, after a
   drain if [max_open] connections are open (the drain closes the
   finished ones).  Each connection and its server's end stay within
   [Unix.select]'s 1,024 descriptors unless a recording holds more than
   [max_open] sessions open across each other. *)
let max_open = 256

type link = Unopened | Open of Unix.file_descr | Closed

type conn = {
  mutable link : link;  (* [Closed] early: a read or write failed *)
  mutable inflight : int;  (* sent, not yet answered *)
  mutable pending : int;  (* entries to send or answer *)
}

let close c =
  (match c.link with
  | Open fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
  | Unopened | Closed -> ());
  c.link <- Closed;
  c.inflight <- 0

(* read one response from [c]'s ready socket and file it under the
   entry it answers; a socket that fails closes, and its in-flight
   entries go unanswered *)
let take c fd got =
  match Wire.read_frame fd with
  | Some frame -> (
      c.inflight <- c.inflight - 1;
      c.pending <- c.pending - 1;
      if c.pending = 0 then close c;
      match digest_of_frame frame with
      | Some gi, digest when gi >= 0 && gi < Array.length got -> got.(gi) <- digest
      | _ -> ()
      | exception Json.Parse_error _ -> ())
  | None | (exception (Wire.Protocol_error _ | Unix.Unix_error _)) -> close c

(* read every response that arrives within [timeout] seconds (negative:
   block until one does) *)
let receive conns got timeout =
  let busy =
    List.filter_map
      (fun c ->
        match c.link with
        | Open fd when c.inflight > 0 -> Some (fd, c)
        | _ -> None)
      conns
  in
  match Unix.select (List.map fst busy) [] [] timeout with
  | ready, _, _ -> List.iter (fun (fd, c) -> if List.mem fd ready then take c fd got) busy
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

(* close [c] after a failed write: the responses its socket already
   holds are read first, so only the entries the server never answered
   go unanswered *)
let abandon c got =
  let rec salvage () =
    match c.link with
    | Open fd when c.inflight > 0 -> (
        match Unix.select [ fd ] [] [] 0. with
        | [], _, _ -> ()
        | _ ->
            take c fd got;
            salvage ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> salvage ())
    | _ -> ()
  in
  salvage ();
  close c

let run ?(paced = false) ?(host = "127.0.0.1") ~port
    (entries : Record.entry list) : outcome =
  (* a server that hangs up must cost its session, not the process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let entries = Array.of_list entries in
  let n = Array.length entries in
  (* sessions in order of first appearance *)
  let by_session = Hashtbl.create 8 and conns = ref [] in
  let conn_of =
    Array.map
      (fun (e : Record.entry) ->
        let c =
          match Hashtbl.find_opt by_session e.Record.e_session with
          | Some c -> c
          | None ->
              let c = { link = Unopened; inflight = 0; pending = 0 } in
              Hashtbl.replace by_session e.Record.e_session c;
              conns := c :: !conns;
              c
        in
        if not (rejected e) then c.pending <- c.pending + 1;
        c)
      entries
  in
  let conns = List.rev !conns in
  Fun.protect ~finally:(fun () -> List.iter close conns) @@ fun () ->
  let dial c = c.link <- Open (connect ~host ~port) in
  List.iteri (fun i c -> if i < max_open && c.pending > 0 then dial c) conns;
  let got = Array.make n None in
  let in_flight () = List.fold_left (fun k c -> k + c.inflight) 0 conns in
  let drain () = while in_flight () > 0 do receive conns got (-1.) done in
  let opened () =
    List.length (List.filter (fun c -> match c.link with Open _ -> true | _ -> false) conns)
  in
  let t0 = Clock.now_ns () in
  let elapsed_s () = Int64.to_float (Int64.sub (Clock.now_ns ()) t0) /. 1e9 in
  let base_arrive_ns = if n = 0 then 0L else entries.(0).Record.e_arrive_ns in
  Array.iteri
    (fun gi (e : Record.entry) ->
      let c = conn_of.(gi) in
      if not (rejected e || c.link = Closed) then begin
        (* a write must observe every earlier request's effects *)
        if is_barrier e then drain ();
        (if paced then
           let offset_s =
             Int64.to_float (Int64.sub e.Record.e_arrive_ns base_arrive_ns)
             /. 1e9
           in
           let rec pace () =
             let left = offset_s -. elapsed_s () in
             if left > 0. then (
               receive conns got left;
               pace ())
           in
           pace ());
        while c.inflight >= window do receive conns got (-1.) done;
        if c.link = Unopened then (
          if opened () >= max_open then drain ();
          dial c);
        match c.link with
        | Open fd -> (
            (* a request is one statement's bytes, so [window] of them
               never fill a socket buffer: a blocking write cannot wedge
               the loop *)
            match
              Wire.write_frame fd
                (Json.to_string
                   (Wire.request_to_json (Wire.request ~id:gi e.Record.e_stmt)))
            with
            | () ->
                c.inflight <- c.inflight + 1;
                (* a write holds the next entry back until its response
                   arrived, so whatever follows runs against post-write
                   state, exactly as recorded *)
                if is_barrier e then drain ()
            | exception (Wire.Protocol_error _ | Unix.Unix_error _) -> abandon c got)
        | Unopened | Closed -> ()
      end)
    entries;
  drain ();
  tally entries got ~wall_ns:(elapsed_s () *. 1e9)
    ~sessions:(Hashtbl.length by_session)

let identical (o : outcome) =
  o.mismatches = [] && o.failed = 0 && o.compared = o.matched

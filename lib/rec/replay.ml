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
  lat_us : float array;
  sessions : int;
}

(* requests the capture server rejected before running them (queued past
   their deadline, or turned away busy): an outcome of capture-time load,
   not of the data.  They keep their turn in arrival order but are not
   sent — re-sent without their deadline, a rejected write would run at
   replay and every later read would diverge — nor byte-diffed *)
let rejected (e : Record.entry) =
  e.Record.e_status = "DEADLINE_EXCEEDED" || e.Record.e_status = "SERVER_BUSY"

let window = 32
(* max in-flight requests per session, comfortably below the server's
   default queue_depth so replay itself never triggers SERVER_BUSY *)

(* entries that recorded no table-version vector are writes (DDL/DML and
   meta statements bypass the cache and pin no deps) or errors: they act
   as barriers.  Between two barriers the dependency vector is constant
   — reads commute — so only barriers need strict ordering against the
   rest of the stream *)
let is_barrier (e : Record.entry) = e.Record.e_deps = []

type session_chan = {
  sc_fd : Unix.file_descr;
  sc_indices : int list;  (* positions into the entry array, in order *)
  sc_lock : Mutex.t;
  sc_cond : Condition.t;
  mutable sc_inflight : int;
  mutable sc_received : int;
  mutable sc_dead : bool;
  mutable sc_out : int;
      (* outstanding requests of this session, guarded by the turnstile
         lock — drained to zero when the connection dies so barrier
         waits cannot hang on a dead channel *)
  mutable sc_drained : bool;
      (* reader exited: pipeline accounting for this channel is closed,
         late sends must not re-enter it (guarded by the turnstile lock) *)
}

let locked mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let connect ~host ~port : Unix.file_descr =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
     Unix.setsockopt fd Unix.TCP_NODELAY true
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  match Wire.read_frame fd with
  | Some frame -> (
      match Wire.greeting_of_string frame with
      | Ok _sid -> fd
      | Error e ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          raise
            (Wire.Protocol_error
               (Printf.sprintf "replay connection rejected: %s: %s"
                  (Wire.error_code_to_string e.Wire.code)
                  e.Wire.message)))
  | None ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise (Wire.Protocol_error "no greeting")

(* digest of one response frame, computed the way capture did: the raw
   result payload bytes of an ok frame (exact, no reparse), or the
   code/message of an error frame *)
let digest_of_frame (frame : string) : (string * bool) option =
  let j = Json.of_string frame in
  match Option.bind (Json.member "status" j) Json.to_string_opt with
  | Some "ok" -> (
      match Wire.ok_frame_payload frame with
      | Some payload ->
          let cached =
            match Json.member "cached" j with
            | Some (Json.Bool b) -> b
            | _ -> false
          in
          Some (Record.digest payload, cached)
      | None -> None)
  | Some "error" ->
      let code =
        Option.value ~default:""
          (Option.bind (Json.member "code" j) Json.to_string_opt)
      in
      let message =
        Option.value ~default:""
          (Option.bind (Json.member "message" j) Json.to_string_opt)
      in
      Some (Record.digest_error ~code ~message, false)
  | _ -> None

let run ?(paced = false) ?(host = "127.0.0.1") ~port
    (entries : Record.entry list) : outcome =
  let entries = Array.of_list entries in
  let n = Array.length entries in
  (* sessions in order of first appearance; each gets one connection *)
  let session_order = ref [] in
  let by_session : (int, int list ref) Hashtbl.t = Hashtbl.create 8 in
  Array.iteri
    (fun i (e : Record.entry) ->
      match Hashtbl.find_opt by_session e.Record.e_session with
      | Some l -> l := i :: !l
      | None ->
          Hashtbl.replace by_session e.Record.e_session (ref [ i ]);
          session_order := e.Record.e_session :: !session_order)
    entries;
  let sessions = List.rev !session_order in
  let chans =
    List.map
      (fun sid ->
        {
          sc_fd = connect ~host ~port;
          sc_indices = List.rev !(Hashtbl.find by_session sid);
          sc_lock = Mutex.create ();
          sc_cond = Condition.create ();
          sc_inflight = 0;
          sc_received = 0;
          sc_dead = false;
          sc_out = 0;
          sc_drained = false;
        })
      sessions
  in
  let got : (string * bool) option array = Array.make n None in
  let send_ns = Array.make n 0L in
  let recv_ns = Array.make n 0L in
  (* the global turnstile: requests leave in the order of the entry
     array, whatever session they belong to — cross-session arrival
     order is reproduced, per-session order is a subsequence of it *)
  let turn = ref 0 in
  let t_lock = Mutex.create () in
  let t_cond = Condition.create () in
  (* sent-but-unanswered requests across every session, and per-entry
     send/completion state — all guarded by [t_lock]; barriers wait on
     them.  [account] writes off one entry's pipeline debt; it is
     idempotent so the response path, the write-failure path and the
     reader-exit drain can each fire without double-counting *)
  let g_inflight = ref 0 in
  let sent_ = Array.make n false in
  let done_ = Array.make n false in
  let account (sc : session_chan) gi =
    if sent_.(gi) && not done_.(gi) then begin
      done_.(gi) <- true;
      decr g_inflight;
      sc.sc_out <- sc.sc_out - 1;
      Condition.broadcast t_cond
    end
  in
  let base_arrive_ns =
    if n = 0 then 0L else entries.(0).Record.e_arrive_ns
  in
  let t0 = Clock.now_ns () in
  let sender (sc : session_chan) () =
    List.iter
      (fun gi ->
        let e = entries.(gi) in
        let skip = rejected e in
        let barrier = is_barrier e && not skip in
        locked t_lock (fun () ->
            while !turn <> gi do
              Condition.wait t_cond t_lock
            done;
            (* a write must observe every earlier request's effects:
               drain the pipeline before it goes out (holding the turn,
               so nothing new enters meanwhile) *)
            if barrier then
              while !g_inflight > 0 do
                Condition.wait t_cond t_lock
              done);
        if paced && not skip then begin
          let target_s =
            Int64.to_float (Int64.sub e.Record.e_arrive_ns base_arrive_ns)
            /. 1e9
          in
          let elapsed_s =
            Int64.to_float (Int64.sub (Clock.now_ns ()) t0) /. 1e9
          in
          if target_s > elapsed_s then Thread.delay (target_s -. elapsed_s)
        end;
        let send =
          (not skip)
          && locked sc.sc_lock (fun () ->
              while sc.sc_inflight >= window && not sc.sc_dead do
                Condition.wait sc.sc_cond sc.sc_lock
              done;
              if sc.sc_dead then false
              else begin
                sc.sc_inflight <- sc.sc_inflight + 1;
                true
              end)
        in
        let sent = ref false in
        (if send then begin
           (* count the request as in flight BEFORE it hits the wire:
              the reader's decrement can then never outrun the
              increment, and a reader that exits in between drains the
              entry itself via [account] (it sees [sent_]) *)
           locked t_lock (fun () ->
               sent_.(gi) <- true;
               if sc.sc_drained then done_.(gi) <- true
               else begin
                 incr g_inflight;
                 sc.sc_out <- sc.sc_out + 1
               end);
           sent := true;
           let frame =
             Json.to_string
               (Wire.request_to_json (Wire.request ~id:gi e.Record.e_stmt))
           in
           try
             send_ns.(gi) <- Clock.now_ns ();
             Wire.write_frame sc.sc_fd frame
           with Unix.Unix_error _ | Wire.Protocol_error _ ->
             locked t_lock (fun () -> account sc gi);
             locked sc.sc_lock (fun () ->
                 sc.sc_dead <- true;
                 Condition.broadcast sc.sc_cond)
         end);
        (* a write also holds the turn until its response arrived, so
           the next arrival (possibly another session's read) executes
           against post-write state, exactly as recorded.  [done_] is
           guaranteed to be set eventually: by the response, by the
           write-failure path, or by the reader-exit drain *)
        if barrier && !sent then
          locked t_lock (fun () ->
              while not done_.(gi) do
                Condition.wait t_cond t_lock
              done);
        locked t_lock (fun () ->
            incr turn;
            Condition.broadcast t_cond))
      sc.sc_indices
  in
  let reader (sc : session_chan) () =
    let expected =
      List.length
        (List.filter (fun gi -> not (rejected entries.(gi))) sc.sc_indices)
    in
    let rec loop () =
      let continue =
        locked sc.sc_lock (fun () -> sc.sc_received < expected && not sc.sc_dead)
      in
      if continue then
        match Wire.read_frame sc.sc_fd with
        | Some frame ->
            (match Json.member "id" (Json.of_string frame) with
            | Some (Json.Int gi) when gi >= 0 && gi < n ->
                recv_ns.(gi) <- Clock.now_ns ();
                got.(gi) <- digest_of_frame frame;
                locked t_lock (fun () -> account sc gi)
            | _ -> ()
            | exception Json.Parse_error _ -> ());
            locked sc.sc_lock (fun () ->
                sc.sc_received <- sc.sc_received + 1;
                sc.sc_inflight <- sc.sc_inflight - 1;
                Condition.broadcast sc.sc_cond);
            loop ()
        | None | (exception Wire.Protocol_error _) | (exception Unix.Unix_error _)
          ->
            locked sc.sc_lock (fun () ->
                sc.sc_dead <- true;
                Condition.broadcast sc.sc_cond)
    in
    (* on exit — clean or dead — write off whatever this channel still
       owes the pipeline, or a barrier elsewhere would wait forever;
       [sc_drained] keeps a racing late send from re-entering it *)
    Fun.protect
      ~finally:(fun () ->
        locked t_lock (fun () ->
            sc.sc_drained <- true;
            List.iter (fun gi -> account sc gi) sc.sc_indices))
      loop
  in
  let threads =
    List.concat_map
      (fun sc ->
        [ Thread.create (reader sc) (); Thread.create (sender sc) () ])
      chans
  in
  List.iter Thread.join threads;
  let wall_ns = Int64.to_float (Int64.sub (Clock.now_ns ()) t0) in
  List.iter
    (fun sc -> try Unix.close sc.sc_fd with Unix.Unix_error _ -> ())
    chans;
  let compared = ref 0 in
  let matched = ref 0 in
  let skipped = ref 0 in
  let failed = ref 0 in
  let cached = ref 0 in
  let mismatches = ref [] in
  let lat_us = Array.make n 0.0 in
  Array.iteri
    (fun gi (e : Record.entry) ->
      (match got.(gi) with
      | Some (_, c) -> if c then incr cached
      | None -> ());
      if recv_ns.(gi) <> 0L && send_ns.(gi) <> 0L then
        lat_us.(gi) <-
          Int64.to_float (Int64.sub recv_ns.(gi) send_ns.(gi)) /. 1e3;
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
    total = n;
    compared = !compared;
    matched = !matched;
    mismatches = List.rev !mismatches;
    skipped = !skipped;
    failed = !failed;
    cached = !cached;
    wall_ns;
    lat_us;
    sessions = List.length sessions;
  }

let identical (o : outcome) =
  o.mismatches = [] && o.failed = 0 && o.compared = o.matched

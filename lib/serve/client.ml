module Json = Tkr_obs.Json

exception Server_error of Wire.error

type t = {
  fd : Unix.file_descr;
  sid : int;
  lock : Mutex.t;  (* one request in flight at a time *)
  mutable next_id : int;
  mutable closed : bool;
}

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let dial ?(host = "127.0.0.1") ~port () =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  let fail e =
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e
  in
  (try
     Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
     Unix.setsockopt fd Unix.TCP_NODELAY true
   with e -> fail e);
  match Wire.read_frame fd with
  | None -> fail (Wire.Protocol_error "server closed without a greeting")
  | Some frame -> (
      match Wire.greeting_of_string frame with
      | Ok sid -> (fd, sid)
      | Error e -> fail (Server_error e))

let connect ?host ~port () =
  let fd, sid = dial ?host ~port () in
  { fd; sid; lock = Mutex.create (); next_id = 1; closed = false }

let session_id t = t.sid

let request_unlocked t (req : Wire.request) : Wire.response =
  if t.closed then raise (Wire.Protocol_error "client is closed");
  Wire.write_frame t.fd (Json.to_string (Wire.request_to_json req));
  match Wire.read_frame t.fd with
  | None -> raise (Wire.Protocol_error "server closed mid-request")
  | Some frame ->
      let rsp = Wire.response_of_string frame in
      (* one request in flight, so the next response must answer it —
         anything else means the stream is desynchronized *)
      if rsp.Wire.rsp_id <> req.Wire.id then
        raise
          (Wire.Protocol_error
             (Printf.sprintf "response id %d does not match request id %d"
                rsp.Wire.rsp_id req.Wire.id));
      rsp

let request t req = locked t (fun () -> request_unlocked t req)

let run ?deadline_ms ?trace ?trace_id t stmt =
  locked t @@ fun () ->
  let id = t.next_id in
  t.next_id <- id + 1;
  request_unlocked t (Wire.request ~id ?deadline_ms ?trace ?trace_id stmt)

let run_exn ?deadline_ms ?trace ?trace_id t stmt =
  let rsp = run ?deadline_ms ?trace ?trace_id t stmt in
  match rsp.Wire.body with
  | Ok _ -> rsp
  | Error e -> raise (Server_error e)

let close t =
  locked t @@ fun () ->
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let with_client ?host ~port f =
  let t = connect ?host ~port () in
  Fun.protect ~finally:(fun () -> close t) (fun () -> f t)

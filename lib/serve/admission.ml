type t = {
  slots : int;
  depth : int;
  lock : Mutex.t;
  freed : Condition.t;  (* signalled when a slot comes back *)
  idle : Condition.t;  (* broadcast when no slot is held or awaited *)
  mutable held : int;
  mutable waiting : int;
  mutable draining : bool;
}

let create ~slots ~depth =
  {
    slots = max 1 slots;
    depth = max 1 depth;
    lock = Mutex.create ();
    freed = Condition.create ();
    idle = Condition.create ();
    held = 0;
    waiting = 0;
    draining = false;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let acquire t =
  locked t @@ fun () ->
  if t.draining then `Draining
  else if t.held < t.slots then begin
    t.held <- t.held + 1;
    `Granted
  end
  else if t.waiting >= t.depth then `Busy
  else begin
    (* a waiter admitted before a drain still gets its slot *)
    t.waiting <- t.waiting + 1;
    while t.held >= t.slots do
      Condition.wait t.freed t.lock
    done;
    t.waiting <- t.waiting - 1;
    t.held <- t.held + 1;
    `Granted
  end

let release t =
  locked t @@ fun () ->
  t.held <- t.held - 1;
  Condition.signal t.freed;
  if t.held = 0 && t.waiting = 0 then Condition.broadcast t.idle

let drain t = locked t (fun () -> t.draining <- true)

let await_idle t =
  locked t @@ fun () ->
  while t.held > 0 || t.waiting > 0 do
    Condition.wait t.idle t.lock
  done

let held t = locked t (fun () -> t.held)
let waiting t = locked t (fun () -> t.waiting)

(** Admission control: a gate of execution slots with backpressure.

    A request executes only while it holds one of the gate's [slots].
    A caller that finds every slot held waits for one, unless [depth]
    callers are already waiting: then it is turned away with [`Busy]
    (the server answers [SERVER_BUSY]) instead of waiting unboundedly.
    On {!drain} the gate stops admitting new work, while callers already
    waiting still get their slot; {!await_idle} then blocks until every
    slot is back.  That is the server's graceful-shutdown contract. *)

type t

val create : slots:int -> depth:int -> t
(** [slots] execution slots, at most [depth] waiting callers ([>= 1]
    each, enforced). *)

val acquire : t -> [ `Granted | `Busy | `Draining ]
(** Take a slot, blocking while all are held.  [`Busy] when every slot
    is held and [depth] callers already wait; [`Draining] once
    {!drain} has been called.  A [`Granted] caller must {!release}. *)

val release : t -> unit

val drain : t -> unit
(** Stop admitting new work.  Idempotent. *)

val await_idle : t -> unit
(** Block until no slot is held or awaited. *)

val held : t -> int
(** Slots held now: requests executing. *)

val waiting : t -> int
(** Callers waiting for a slot. *)

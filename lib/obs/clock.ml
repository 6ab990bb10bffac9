(** Monotonic time source for all observability timings.

    Backed by [clock_gettime(CLOCK_MONOTONIC)] via bechamel's stubs, so
    timings are immune to wall-clock adjustments.  Everything in [Tkr_obs]
    takes the clock as a value so tests can substitute a deterministic
    one. *)

type t = unit -> int64
(** A clock yields a monotonically non-decreasing timestamp in
    nanoseconds. *)

let monotonic : t = Monotonic_clock.now

let now_ns () : int64 = monotonic ()

let frozen : t = fun () -> 0L
(** A clock stuck at 0: every measured duration is exactly zero.  Used by
    tests that need deterministic traces and metrics. *)

(** Elapsed nanoseconds of [f ()], alongside its result. *)
let elapsed ?(clock = monotonic) (f : unit -> 'a) : int64 * 'a =
  let t0 = clock () in
  let r = f () in
  (Int64.sub (clock ()) t0, r)

let ns_to_ms (ns : int64) : float = Int64.to_float ns /. 1e6

(* Machine-speed calibration.

   A fixed reference kernel runs briefly between operations, while the
   program under test is idle.  Its duration tracks how fast the machine
   currently is; every timed window is divided by the local speed factor
   (kernel time now / nominal kernel time), which turns wall time into
   "reference time": the time the window would have taken on a machine
   running the kernel in exactly [nominal_ns].

   The kernel is an OCaml allocation loop — short-lived cons cells and
   pairs, minor collections — because that is what tracks this program's
   drift.  Measured on a 2-core x86-64 VM,
   over 10 s stretches of three employee queries: raw times varied by
   14-18% (IQR / median), an arithmetic loop corrected that to 8-14%, a
   32 MiB pointer chase to 5-12% and a 2 MiB memset to 6-10%, each
   depending on the stretch, while the allocation loop held 3-5% every
   time.  The program's cost is dominated by allocation and the memory
   traffic of the minor heap, and that is what drifts.

   So that the kernel neither disturbs the heap being measured nor
   depends on it, it runs in a helper process forked at start-up, before
   the program under test allocates anything, with its own small heap.
   It calls no code of the program.  The measured process only writes a
   byte to a pipe and reads the helper's timing back: a reading allocates
   no words in the measured process, which {!check_zero_alloc} asserts
   with the GC's own counter. *)

let kernel_steps = 100_000

(* the result lands here so the loop cannot be optimized away *)
let sink = ref 0

let kernel () =
  let l = ref [] in
  for i = 1 to kernel_steps do
    l := (i, i) :: (if i land 255 = 0 then [] else !l)
  done;
  sink := List.length !l

(* The kernel's duration on a machine running at the reference speed.
   Only ratios to it matter; it is set near the kernel's typical time on
   a 2-core x86-64 VM so that reference milliseconds read close to
   wall milliseconds there. *)
let nominal_ns = 300_000.

let now_ns () = Int64.to_float (Tkr_obs.Clock.now_ns ())

(* the fastest of three back-to-back kernel runs, so a preemption inside
   one run does not read as a slow machine *)
let best_of_three () =
  let best = ref infinity in
  for _ = 1 to 3 do
    let t0 = now_ns () in
    kernel ();
    let d = now_ns () -. t0 in
    if d < !best then best := d
  done;
  !best

(* the helper: one request byte in, the kernel's timing out as eight
   bytes; it exits when the pipe closes *)
let helper req rsp =
  let b = Bytes.create 8 in
  (try
     while Unix.read req b 0 1 = 1 do
       Bytes.set_int64_le b 0 (Int64.bits_of_float (best_of_three ()));
       if Unix.write rsp b 0 8 <> 8 then raise Exit
     done
   with _ -> ());
  Stdlib.exit 0

let req_fd, rsp_fd, helper_pid =
  let r1, w1 = Unix.pipe ~cloexec:true () and r2, w2 = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close w1;
      Unix.close r2;
      helper r1 w2
  | pid ->
      Unix.close r1;
      Unix.close w2;
      (w1, r2, pid)

(* stop the helper and wait for it *)
let () =
  at_exit (fun () ->
      (try Unix.close req_fd with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] helper_pid) with Unix.Unix_error _ -> ())

let buf = Bytes.create 8
let last = Float.Array.make 1 0.

(* one reading into [last]: no allocation in this process *)
let read_into_last () =
  if Unix.write req_fd buf 0 1 <> 1 then failwith "calibration helper gone";
  let got = ref 0 in
  while !got < 8 do
    let n = Unix.read rsp_fd buf !got (8 - !got) in
    if n = 0 then failwith "calibration helper gone";
    got := !got + n
  done;
  Float.Array.unsafe_set last 0 (Int64.float_of_bits (Bytes.get_int64_le buf 0))

let check_zero_alloc () =
  let a = Gc.minor_words () in
  let b = Gc.minor_words () in
  read_into_last ();
  let c = Gc.minor_words () in
  let w = (c -. b) -. (b -. a) in
  if w <> 0. then
    failwith (Printf.sprintf "a calibration reading allocated %.0f words (must be 0)" w)

(* one speed reading, in ns of kernel time *)
let sample_ns () =
  read_into_last ();
  Float.Array.get last 0

let median (a : float array) =
  let n = Array.length a in
  if n = 0 then nan
  else
    let b = Array.copy a in
    Array.sort compare b;
    if n land 1 = 1 then b.(n / 2) else (b.((n / 2) - 1) +. b.(n / 2)) /. 2.

(* A calibrated timeline: speed readings taken at most every 20 ms
   between operations, each at a position in the sequence of timed
   windows.  The factor applied to a window is the median of the 12
   readings nearest to it, which smooths single noisy readings while
   following the machine's slow and fast stretches (seconds long). *)
let interval_ns = 20e6
let nearest = 12

type t = {
  mutable last_ns : float;
  mutable readings : (int * float) list;  (* (window index, kernel ns), newest first *)
  mutable windows : int;
}

let create () = { last_ns = neg_infinity; readings = []; windows = 0 }

let read t =
  t.readings <- (t.windows, sample_ns ()) :: t.readings;
  t.last_ns <- now_ns ()

(* call between operations: takes a reading when one is due *)
let tick t = if now_ns () -. t.last_ns >= interval_ns then read t

(* reserve the index of the next timed window *)
let window t =
  let i = t.windows in
  t.windows <- i + 1;
  i

(* per-window speed factors (kernel ns / nominal ns) *)
let factors t : float array =
  let rs = Array.of_list (List.rev t.readings) in
  let n = Array.length rs in
  if n = 0 then invalid_arg "Calib.factors: no readings";
  let pos = Array.map fst rs and ks = Array.map snd rs in
  (* index of the first reading taken after window [w] started *)
  let first_after w =
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if pos.(mid) <= w then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  Array.init t.windows (fun w ->
      let lo = max 0 (min (first_after w - (nearest / 2)) (n - nearest)) in
      let hi = min n (lo + nearest) in
      median (Array.sub ks lo (hi - lo)) /. nominal_ns)

let kernel_ms t = median (Array.of_list (List.map snd t.readings)) /. 1e6

(* Time one standalone block (set-up): readings just before and after it,
   factor from their median.  Returns (reference seconds, raw seconds,
   factor, result). *)
let timed_block f =
  let before = Array.init 5 (fun _ -> sample_ns ()) in
  let t0 = now_ns () in
  let r = f () in
  let raw = (now_ns () -. t0) /. 1e9 in
  let after = Array.init 5 (fun _ -> sample_ns ()) in
  let factor = median (Array.append before after) /. nominal_ns in
  (raw /. factor, raw, factor, r)

(** Process-wide index telemetry: builds, rebuilds after DML, probes
    and reported candidates, as lock-free atomics.  The serve scrape path
    exports them as [tkr_idx_*] gauges; [tkr_cli top] and [STATS] render
    the same numbers. *)

let built = Atomic.make 0
let rebuilds = Atomic.make 0
let probes = Atomic.make 0
let candidates = Atomic.make 0

let add cell n = ignore (Atomic.fetch_and_add cell n)

(** One index construction; [rebuild] marks a build for a table value
    installed by DML over an earlier value whose index had been built. *)
let record_build ~rebuild =
  add built 1;
  if rebuild then add rebuilds 1

(** [probes] probes reporting [candidates] candidate rows in total. *)
let record_probes ~probes:p ~candidates:c =
  add probes p;
  add candidates c

type snapshot = {
  s_built : int;
  s_rebuilds : int;
  s_probes : int;
  s_candidates : int;
}

let snapshot () : snapshot =
  {
    s_built = Atomic.get built;
    s_rebuilds = Atomic.get rebuilds;
    s_probes = Atomic.get probes;
    s_candidates = Atomic.get candidates;
  }

(** Zero all counters (tests and bench isolation). *)
let reset () =
  Atomic.set built 0;
  Atomic.set rebuilds 0;
  Atomic.set probes 0;
  Atomic.set candidates 0

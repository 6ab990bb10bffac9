#!/usr/bin/env python3
"""Build and run the benchmark (see perfbench/README.md).

One run:
    python3 perfbench/run.py --workload olap --seed 1 --seconds 10 --trace 0

Builds perfbench/bench.exe from source with dune, runs it once in a fresh
process and passes its output through; the last line is the result object.

Steadiness check:
    python3 perfbench/run.py --steady 10 [--workloads olap,serve] [--seed 1]

Runs each workload k times with seeds seed..seed+k-1 and prints, per
metric, the median, the quartiles and their spread (Q3 - Q1) / median
against the metric's bound.  Exits 1 when a spread exceeds its bound.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
WORKLOADS = ["olap", "serve", "writes"]

# Metrics the benchmark reports beside those in BENCHMARK.json: the
# write latencies exist on one workload only, and fail_ratio is 0 on
# correct code (a relative bound is meaningless there; any failure shows
# in "failed" and "correct").
EXTRA_BOUNDS = {"write_p50_ms": 0.15, "write_p99_ms": 0.25}

RUN_TIMEOUT_S = 170


def build():
    dune = shutil.which("dune")
    cmd = [dune] if dune else ["opam", "exec", "--", "dune"]
    # no shared dune cache: the build reads and writes inside the checkout only
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        cmd + ["build", "--root", ROOT, "./perfbench/bench.exe"],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if r.returncode != 0 or not os.path.exists(EXE):
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(2)


def pin_one_cpu():
    """Pin this process, and so the benchmark it starts, to one CPU.

    The benchmark's process, its server threads and its calibration
    helper then share one CPU, so the reference kernel measures the speed
    of the CPU the program runs on (the two CPUs of a small VM drift
    independently).  The server threads share one OCaml runtime lock and
    one domain, so one CPU costs them no parallelism."""
    try:
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[-1]})
    except OSError as e:
        print("perfbench: running unpinned (%s)" % e, file=sys.stderr)


def run_once(workload, seed, seconds, trace, capture):
    cmd = [
        EXE,
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--out", os.path.join(HERE, "out"),
    ]
    try:
        r = subprocess.run(
            cmd,
            cwd=ROOT,
            stdout=subprocess.PIPE if capture else None,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        sys.exit(3)
    if r.returncode != 0:
        print("perfbench: run failed with code %d" % r.returncode, file=sys.stderr)
        sys.exit(r.returncode or 4)
    return r.stdout


def parse(out):
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    report = {}
    for line in lines:
        if line.startswith("report "):
            report = json.loads(line[len("report "):])
    return result, report


def steady(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    bounds.update(EXTRA_BOUNDS)
    workloads = args.workloads.split(",") if args.workloads else WORKLOADS
    seconds = args.seconds or bench["run_seconds"]
    worst = 0.0
    saved = {}
    for w in workloads:
        values = {}
        failed = 0
        for k in range(args.steady):
            seed = args.seed + k
            result, report = parse(run_once(w, seed, seconds, 0, capture=True))
            failed += result["failed"]
            for name, m in report.get("metrics", {}).items():
                if name in bounds:
                    values.setdefault(name, []).append(m["value"])
            print("  %s seed %d: %s" % (w, seed, " ".join(
                "%s=%.5g" % (n, m["value"]) for n, m in result["metrics"].items())),
                flush=True)
        print("%s: %d runs, %d failed ops" % (w, args.steady, failed))
        print("  %-18s %12s %12s %12s %8s %7s  %s" % (
            "metric", "median", "q1", "q3", "spread", "bound", "verdict"))
        saved[w] = values
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds[name]
            verdict = ("steady" if spread < bound / 3 else
                       "within bound" if spread <= bound else "TOO NOISY")
            if name != "setup_s" and spread > bound:
                worst = max(worst, spread / bound)
            print("  %-18s %12.5g %12.5g %12.5g %7.1f%% %6.0f%%  %s" % (
                name, med, q1, q3, 100 * spread, 100 * bound, verdict), flush=True)
        if failed:
            worst = max(worst, 2.0)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(saved, f, indent=1)
    return 1 if worst > 1.0 else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--steady", type=int, metavar="K",
                    help="run each workload K times and report spreads")
    ap.add_argument("--workloads", help="comma-separated subset for --steady")
    ap.add_argument("--save", help="write the --steady values to this JSON file")
    args = ap.parse_args()
    if args.steady is None and args.workload is None:
        ap.error("give --workload, or --steady K")
    build()
    pin_one_cpu()
    if args.steady is not None:
        sys.exit(steady(args))
    out = run_once(args.workload, args.seed, args.seconds or 10, args.trace, capture=True)
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()

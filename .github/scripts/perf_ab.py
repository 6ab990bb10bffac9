#!/usr/bin/env python3
"""Same-runner A/B gate over the benchmark (perfbench/).

    python3 .github/scripts/perf_ab.py BASE_DIR HEAD_DIR WORKLOAD

BASE_DIR and HEAD_DIR are two checkouts (e.g. the merge-base and the
change).  Each side runs `python3 <dir>/perfbench/run.py --workload
WORKLOAD --seed s --seconds <run_seconds>` from its own checkout, so each
builds and runs its own code.  K pairs run alternately: both runs of a
pair share a seed, and the side that runs first alternates from pair to
pair, so drift on the runner falls on both sides alike.

Per end-to-end metric of HEAD_DIR/BENCHMARK.json, the medians of the two
sides are compared against the metric's bound, and the pairs the head
won are counted: a pair is won when the head's run is better than the
base's run of the same seed, and a tie counts for neither side.  A
claimed gain is read from that count (nine of ten pairs won) and from
the medians, as committed BENCH_PR<n>.json reports are made; the count
does not change the verdict.  The gate fails (exit 1)
when a run exits non-zero, when a head run reports failed operations or
correct: false, or when a head median is worse than the base median by
more than the bound.  A metric whose base quartile spread (Q3 - Q1) /
median exceeds its bound cannot be judged on this runner; it is printed
as "unresolved" and does not fail the gate.

The medians, pairs won and verdicts are written to perf_ab_<WORKLOAD>.json
in the current directory.
"""

import json
import os
import statistics
import subprocess
import sys

K = 10  # alternating pairs
RUN_TIMEOUT_S = 900


def run_once(checkout, workload, seed, seconds):
    cmd = [
        sys.executable, os.path.join(checkout, "perfbench", "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
    ]
    try:
        r = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    if r.returncode != 0:
        return None
    return json.loads(r.stdout.strip().splitlines()[-1])


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "values": values}


def main():
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    base_dir, head_dir = map(os.path.abspath, sys.argv[1:3])
    workload = sys.argv[3]
    with open(os.path.join(head_dir, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    runs = {"base": [], "head": []}
    problems = []
    for i in range(K):
        seed = i + 1
        order = [("base", base_dir), ("head", head_dir)]
        if i % 2:
            order.reverse()
        for side, checkout in order:
            r = run_once(checkout, workload, seed, seconds)
            if r is None:
                problems.append("%s seed %d: run failed or timed out"
                                % (side, seed))
                continue
            print("%s seed %d: attempted %d failed %d correct %s  %s" % (
                side, seed, r["attempted"], r["failed"], r["correct"],
                " ".join("%s=%.5g" % (n, m["value"])
                         for n, m in r["metrics"].items())), flush=True)
            if side == "head" and (r["failed"] > 0 or not r["correct"]):
                problems.append("head seed %d: %d failed operations, correct %s"
                                % (seed, r["failed"], r["correct"]))
            runs[side].append((seed, r))

    report = {"workload": workload, "pairs": K, "run_seconds": seconds,
              "metrics": {}}
    print("\n%s: %d pairs of %d s runs" % (workload, K, seconds))
    print("  %-18s %12s %12s %8s %8s %6s %7s  %s" % (
        "metric", "base", "head", "change", "spread", "bound", "won",
        "verdict"))
    for name, m in metrics.items():
        by_seed = {side: {seed: r["metrics"][name]["value"] for seed, r in rs
                          if name in r["metrics"]}
                   for side, rs in runs.items()}
        vals = {side: list(v.values()) for side, v in by_seed.items()}
        if len(vals["base"]) < 2 or len(vals["head"]) < 2:
            continue
        base, head = summary(vals["base"]), summary(vals["head"])
        bmed, hmed = base["median"], head["median"]
        change = (hmed - bmed) / bmed if bmed else 0.0
        worse = change if m["better"] == "lower" else -change
        spread = (base["q3"] - base["q1"]) / bmed if bmed else float("inf")
        pairs = [(b, by_seed["head"][seed])
                 for seed, b in by_seed["base"].items()
                 if seed in by_seed["head"]]
        won = sum(1 for b, h in pairs
                  if (h < b if m["better"] == "lower" else h > b))
        if spread > m["bound"]:
            verdict = "unresolved"
        elif worse > m["bound"]:
            verdict = "WORSE"
            problems.append("%s: head median %.5g vs base %.5g (%+.1f%%, bound %.0f%%)"
                            % (name, hmed, bmed, 100 * change, 100 * m["bound"]))
        else:
            verdict = "ok"
        report["metrics"][name] = {"base": base, "head": head, "change": change,
                                   "base_spread": spread, "bound": m["bound"],
                                   "pairs": len(pairs), "head_won": won,
                                   "verdict": verdict}
        print("  %-18s %12.5g %12.5g %+7.1f%% %7.1f%% %5.0f%% %7s  %s" % (
            name, bmed, hmed, 100 * change, 100 * spread, 100 * m["bound"],
            "%d/%d" % (won, len(pairs)), verdict), flush=True)

    report["problems"] = problems
    with open("perf_ab_%s.json" % workload, "w") as f:
        json.dump(report, f, indent=1)
    for p in problems:
        print("FAIL " + p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()

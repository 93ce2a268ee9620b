#!/usr/bin/env python3
"""Steadiness check: runs every workload over a list of seeds and prints,
for every end-to-end metric, the median, the quartiles and the spread
(interquartile range over median) next to the bound BENCHMARK.json gives.

    python3 perfbench/steady.py                    # seeds 1..10, one set
    python3 perfbench/steady.py --sets 2           # the same seeds twice
    python3 perfbench/steady.py --unseen --runs 5  # seeds never used to set bounds
    python3 perfbench/steady.py --workloads ne_range --runs 5

The bounds were set from seeds 1..10; --unseen reruns on seeds from 1001.
Exit status 1 when a run is incorrect, a spread (setup_s excepted)
exceeds its bound, the failed share differs between sets, a second set's
median is worse than the first's by more than the bound, or a simulated
count metric differs between two runs of one seed.  Every run's result
is kept in .bench_build/steady/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Counted in the simulator, not timed on the host: a seed must reproduce
# them exactly.
SIMULATED = {"lookups_per_op", "rounds_p50", "sim_latency_p50_ms",
             "sim_latency_p99_ms", "peer_load_max_over_avg"}


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        sys.exit("steady.py: %s seed %d exited with %d"
                 % (workload, seed, proc.returncode))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    result["seed"] = seed
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def report(workload, bench, sets, extra):
    """Prints the table of one workload; returns the list of problems.
    `extra` holds runs that only feed the repeat check."""
    problems = []
    print("\n== %s (%d runs per set, %s) ==" % (
        workload, len(sets[0]),
        ", ".join("set %d wall %.0f s" % (i + 1, sum(r["wall_s"] for r in s))
                  for i, s in enumerate(sets))))
    print("%-24s %-10s %6s %4s %14s %14s %14s %8s %8s" % (
        "metric", "unit", "bound", "set", "median", "q1", "q3", "spread",
        "/bound"))
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        medians = []
        for i, runs in enumerate(sets):
            values = [r["metrics"][name]["value"] for r in runs]
            med, q1, q3, sp = spread(values)
            medians.append(med)
            print("%-24s %-10s %6.2f %4d %14.6g %14.6g %14.6g %8.4f %8.2f" % (
                name, m["unit"], bound, i + 1, med, q1, q3, sp, sp / bound))
            if name != "setup_s" and sp > bound:
                problems.append("%s %s: spread %.4f > bound %.2f"
                                % (workload, name, sp, bound))
        for med in medians[1:]:
            worse = med / medians[0] - 1.0
            if m["better"] == "higher":
                worse = -worse
            if worse > bound:
                problems.append("%s %s: a later set's median is worse by %.4f"
                                % (workload, name, worse))
    all_runs = [r for s in sets for r in s] + extra
    for r in all_runs:
        if not r["correct"]:
            problems.append("%s seed %d: incorrect" % (workload, r["seed"]))
    shares = {sum(r["failed"] for r in s) / sum(r["attempted"] for r in s)
              for s in sets}
    if len(shares) > 1:
        problems.append("%s: failed share differs between sets" % workload)
    by_seed = {}
    for r in all_runs:
        sim = {k: v["value"] for k, v in r["metrics"].items() if k in SIMULATED}
        if by_seed.setdefault(r["seed"], sim) != sim:
            problems.append("%s seed %d: simulated metrics differ"
                            % (workload, r["seed"]))
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", default=names, choices=names)
    p.add_argument("--runs", type=int, default=10, help="seeds per set")
    p.add_argument("--sets", type=int, default=1,
                   help="repeat the same seeds this many times")
    p.add_argument("--unseen", action="store_true",
                   help="seeds from 1001, never used to set the bounds")
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = p.parse_args()
    if args.runs < 4:
        p.error("quartiles need at least 4 runs")
    first = 1001 if args.unseen else 1
    seeds = list(range(first, first + args.runs))

    out_dir = os.path.join(ROOT, ".bench_build", "steady")
    os.makedirs(out_dir, exist_ok=True)
    problems = []
    for w in args.workloads:
        sets = [[run_once(w, s, args.seconds) for s in seeds]
                for _ in range(args.sets)]
        # With one set, one more run of the first seed shows whether the
        # simulated counts repeat.
        extra = [run_once(w, seeds[0], args.seconds)] if args.sets == 1 else []
        with open(os.path.join(out_dir, "%s-%d.json" % (w, int(time.time()))),
                  "w") as f:
            json.dump({"sets": sets, "extra": extra}, f, indent=1)
        problems += report(w, bench, sets, extra)
    print()
    for pr in problems:
        print("PROBLEM: " + pr)
    print("steady: %s" % ("ok" if not problems else "%d problems"
                          % len(problems)))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()

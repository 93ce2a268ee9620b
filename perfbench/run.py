#!/usr/bin/env python3
"""Runs one workload of the m-LIGHT benchmark and prints its result.

    python3 perfbench/run.py --workload ne_range --seed 1 --seconds 10 --trace 0

Builds perfbench/ (mlight_perfbench) against the repository's src/ libraries in
.bench_build/perfbench, runs the workload in one single-threaded process
and prints, as the last stdout line, one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end ones; with --trace 1 they are the per-layer ones, printed
also as a table, and the spans go to .bench_build/traces/.  A line
starting with "# host" before the result stamps the host.
"""

import argparse
import json
import os
import platform
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "mlight_perfbench")
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("run.py: no m-LIGHT sources next to perfbench/ (want src/)")
        sys.exit(1)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            sys.exit(1)
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "--target", "mlight_perfbench",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit(1)


def cache_entry(name):
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(name + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def fingerprint(args):
    compiler = cache_entry("CMAKE_CXX_COMPILER")
    try:
        out = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout
        compiler = out.splitlines()[0] if out else compiler
    except OSError:
        pass
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        git_sha = sha.stdout.strip() if sha.returncode == 0 else "none"
    except OSError:
        git_sha = "none"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "compiler": compiler,
        "build_type": cache_entry("CMAKE_BUILD_TYPE"),
        "git_sha": git_sha,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def print_layer_table(metrics):
    """The per-layer table: one block per layer (the name's first part)."""
    layers = {}
    for name, m in metrics.items():
        layers.setdefault(name.split(".", 1)[0], []).append((name, m))
    for layer, rows in layers.items():
        print("# [%s]" % layer)
        for name, m in rows:
            print("#   %-40s %16.6g %s" % (name, m["value"], m["unit"]))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--variant", default="",
                   help="reference variant: single_insert (ne_ingest) or "
                        "balance_off (zipf_mixed)")
    args = p.parse_args()
    if not re.fullmatch(r"[A-Za-z0-9_]+", args.workload):
        p.error("bad workload name")

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        # One file per workload, overwritten: a 20 s traced run of
        # baseline_range writes about 90 MB of spans.
        cmd += ["--trace-out", os.path.join(traces, args.workload + ".tsv")]
    if args.variant:
        cmd += ["--variant", args.variant]
    # The program reads a few MLIGHT_* switches (cache, audit level,
    # shard count, schedule shuffle, fault seed); the benchmark runs the
    # defaults, on one thread.
    env = {k: v for k, v in os.environ.items() if not k.startswith("MLIGHT_")}
    env["MLIGHT_SIM_SHARDS"] = "1"
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run.py: %s did not finish in %d s" % (args.workload,
                                                    RUN_TIMEOUT_S))
        sys.exit(1)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("run.py: workload %s exited with %d" % (args.workload,
                                                    proc.returncode))
        sys.exit(1)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("run.py: malformed result line")
        sys.exit(1)
    print("# host " + json.dumps(fingerprint(args), sort_keys=True))
    if args.trace:
        print_layer_table(result["metrics"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()

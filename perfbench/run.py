#!/usr/bin/env python3
"""Builds the repo benchmark from source and runs one workload (or all four).

Run from the repository root:

    python3 perfbench/run.py --workload wire --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload wire --seed 1 --seconds 10 --trace 1
    python3 perfbench/run.py --all --seed 1 --seconds 10

BENCHMARK.json gates fig3_native and attack_corpus; wire and vm_calls run
the same way but are not gated. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the current directory. A single-workload run
passes the driver's standard output through, so its last line is the JSON
result; --all prints a table of every end-to-end metric per workload. See
perfbench/src/main.cpp for the metrics and the public call behind each.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ["wire", "vm_calls", "fig3_native", "attack_corpus"]
HERE = os.path.dirname(os.path.abspath(__file__))
# A single run ends well inside the three minutes a run may take.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build_dir():
    # Keyed by the source location, so checkouts sharing one
    # CARGO_TARGET_DIR never share a CMake cache.
    key = hashlib.sha1(HERE.encode()).hexdigest()[:12]
    return os.path.abspath(
        os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                     "perfbench-" + key))


def build():
    """Configures and builds the driver; returns its path or None."""
    out = build_dir()
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", "4"],
    ]
    for step in steps:
        try:
            done = subprocess.run(step, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print("perfbench: build timed out", file=sys.stderr)
            return None
        if done.returncode != 0:
            sys.stderr.write(done.stdout.decode(errors="replace")[-4000:])
            print("perfbench: build failed", file=sys.stderr)
            return None
    return os.path.join(out, "perfbench")


def run_one(binary, workload, seed, seconds, trace):
    """Runs one workload in its own process; returns (exit code, stdout)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%d.jsonl" % (workload, seed))]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("perfbench: %s timed out" % workload, file=sys.stderr)
        return 124, ""
    return proc.returncode, out.decode(errors="replace")


def print_table(results):
    names = []
    for res in results.values():
        for name in res["metrics"]:
            if name not in names:
                names.append(name)
    print("%-14s" % "metric" + "".join("%18s" % w for w in results))
    for name in names:
        row = "%-14s" % name
        for res in results.values():
            m = res["metrics"].get(name)
            row += "%18s" % ("%.6g %s" % (m["value"], m["unit"]) if m else "-")
        print(row)
    for key in ("correct", "attempted", "failed"):
        print("%-14s" % key +
              "".join("%18s" % res[key] for res in results.values()))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true",
                    help="run every workload and print one table")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not args.all and not args.workload:
        ap.error("give --workload or --all")

    binary = build()
    if binary is None:
        return 2
    if not args.all:
        code, out = run_one(binary, args.workload, args.seed, args.seconds,
                            args.trace)
        sys.stdout.write(out)
        return code

    results = {}
    for workload in WORKLOADS:
        code, out = run_one(binary, workload, args.seed, args.seconds,
                            args.trace)
        lines = out.strip().splitlines()
        if code != 0 or not lines:
            print("perfbench: %s exited %d" % (workload, code),
                  file=sys.stderr)
            continue
        print(lines[-2] if len(lines) > 1 else "", file=sys.stderr)
        results[workload] = json.loads(lines[-1])
    print_table(results)
    ok = len(results) == len(WORKLOADS) and all(
        r["correct"] for r in results.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

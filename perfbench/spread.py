#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over seeds.

    python3 perfbench/spread.py --runs 10 --seconds 45 [--workload wire ...]

Runs each workload (by default those BENCHMARK.json gates) once per seed
(1..runs, or from --first-seed) and prints, per end-to-end metric, the
median and the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median, next to the metric's
bound in BENCHMARK.json. A spread above a third of its bound, setup_s's
included, is flagged WIDE: the benchmark is not steady enough there.
"""

import argparse
import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=run.WORKLOADS)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--benchmark", default="BENCHMARK.json")
    ap.add_argument("--verbose", action="store_true",
                    help="print every run's value too")
    args = ap.parse_args()

    with open(args.benchmark) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    binary = run.build()
    if binary is None:
        return 2
    steady = True
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            code, out = run.run_one(binary, workload, seed, args.seconds, 0)
            res = json.loads(out.strip().splitlines()[-1]) if code == 0 else None
            if not res or not res["correct"]:
                print("%s seed %d: failed (exit %d)" % (workload, seed, code))
                steady = False
                continue
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vals in values.items():
            if len(vals) < 2:
                print("%-14s %-15s too few runs" % (workload, name))
                steady = False
                continue
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med if med else float("inf")
            bound = bounds.get(name, 0)
            flag = "" if spread < bound / 3 else "  WIDE"
            steady = steady and not flag
            print("%-14s %-15s median %-14.6g spread %6.2f%%  bound %5.1f%%%s"
                  % (workload, name, med, spread * 100, bound * 100, flag))
            if args.verbose:
                print("    " + " ".join("%.6g" % v for v in vals))
            sys.stdout.flush()
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

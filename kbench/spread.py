#!/usr/bin/env python3
"""Runs kbench several times per workload and reports each end-to-end
metric's median and spread (interquartile range as a share of the median)
next to its bound in BENCHMARK.json.

    python3 kbench/spread.py --seeds 1-10 [--workloads a,b] [--json out.json]

Run from the root of a checkout. Each run uses its own seed, so the spread
covers both input and run-to-run variation. A spread at or above a third of
the metric's bound is flagged (setup_s is exempt from the spread rule but
still reported).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(spec):
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        sys.exit("%s seed %d exited %d" % (workload, seed, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--json", help="also write every run's result here")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    all_runs = {}
    ok = True
    for workload in args.workloads.split(","):
        runs = [run_once(workload, s, bench["run_seconds"]) for s in seeds]
        all_runs[workload] = runs
        bad = [r for r in runs if not r["correct"] or r["failed"]]
        print("%s: %d runs, %d incorrect" % (workload, len(runs), len(bad)))
        ok &= not bad
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            med = statistics.median(values)
            q = statistics.quantiles(values, n=4) if len(values) > 1 else [med] * 3
            spread = (q[2] - q[0]) / med if med else float("inf")
            limit = metric["bound"] / 3
            flag = "" if spread < limit or metric["name"] == "setup_s" else "  WIDE"
            ok &= not flag
            print("  %-18s median %-12.6g spread %.4f  (bound %.2f)%s" %
                  (metric["name"], med, spread, metric["bound"], flag))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(all_runs, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

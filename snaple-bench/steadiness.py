#!/usr/bin/env python3
"""Run snaple-bench over several seeds and report each metric's spread.

    python3 snaple-bench/steadiness.py [--runs 10] [--first-seed 1]
        [--workloads a,b] [--seconds S] [--trace 0|1]

Run it from the repository root. For every workload it makes --runs
runs, each with its own seed, through run.py, and prints per metric
the median, the quartiles (statistics.quantiles(values, n=4)), the
spread (q3 - q1) / median and, for end-to-end metrics, the bound from
BENCHMARK.json. With --trace 1 it also prints the distribution of the
per-round net.lanes_speedup values (README.md, "Steadiness").
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, check=True, text=True,
                         stdout=subprocess.PIPE).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    speedups = []
    for line in lines:
        if line.startswith("lanes_speedup per round:"):
            speedups += [float(x) for x in line.split(":")[1].split()]
    return result, speedups


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for w in args.workloads.split(","):
        values, speedups, failed = {}, [], 0
        for i in range(args.runs):
            seed = args.first_seed + i
            res, sp = run_once(w, seed, args.seconds, args.trace)
            speedups += sp
            failed += res["failed"] + (0 if res["correct"] else 1)
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            values.setdefault("failed_frac", []).append(
                res["failed"] / res["attempted"])
        print("%s (%d runs, seeds %d..%d, failures %d)" % (
            w, args.runs, args.first_seed, args.first_seed + args.runs - 1,
            failed))
        print("  %-28s %12s %12s %12s %8s %6s" % (
            "metric", "median", "q1", "q3", "spread", "bound"))
        for name, v in values.items():
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 \
                else (v[0], v[0], v[0])
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            mark = ""
            if bound is not None and spread >= bound / 3:
                mark = "  <-- above bound/3"
                ok = False
            print("  %-28s %12.6g %12.6g %12.6g %8.4f %6s%s" % (
                name, med, q1, q3, spread,
                "" if bound is None else bound, mark))
        if speedups:
            s = sorted(speedups)
            print("  lanes_speedup per round: n=%d min %.3f median %.3f "
                  "max %.3f" % (len(s), s[0], statistics.median(s), s[-1]))
            # Counts per 0.25x bin: two separated clusters are the
            # bimodal lane behaviour README.md describes.
            bins = {}
            for x in s:
                lo = int(x * 4) / 4
                bins[lo] = bins.get(lo, 0) + 1
            print("    histogram: " + ", ".join(
                "%.2f-%.2fx: %d" % (lo, lo + 0.25, n)
                for lo, n in sorted(bins.items())))
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

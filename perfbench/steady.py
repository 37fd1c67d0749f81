#!/usr/bin/env python3
"""Run one benchmark workload N times and print each metric's spread.

Usage (from the root of a checkout):

    python3 perfbench/steady.py --workload serve_clean [--runs 10]
        [--first-seed 1] [--seconds 25] [--trace 0|1]

Run k uses --seed first_seed + k. For every metric of the final JSON line the
table shows the median, the quartiles (statistics.quantiles(values, n=4)),
min, max and the inter-quartile spread as a share of the median, which is
what a metric's bound in BENCHMARK.json is compared against. Runs are
sequential: the benchmark is single-threaded and parallel runs would
contend. Exits non-zero if any run fails or reports correct=false.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    args = ap.parse_args()

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    ok = True
    for k in range(args.runs):
        seed = args.first_seed + k
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", args.workload, "--seed",
             str(seed), "--seconds", str(args.seconds), "--trace", args.trace],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        good = proc.returncode == 0 and result.get("correct") is True
        ok = ok and good
        print(f"run {k + 1}/{args.runs} seed {seed}: exit {proc.returncode}, "
              f"correct {result.get('correct')}, attempted "
              f"{result.get('attempted')}, failed {result.get('failed')}",
              flush=True)
        for name, m in result.get("metrics", {}).items():
            values.setdefault(name, []).append(float(m["value"]))
            units[name] = m["unit"]

    print(f"\n{args.workload}: {args.runs} runs, {args.seconds} s each")
    print(f"{'metric':34s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
          f"{'min':>14s} {'max':>14s} {'iqr/med':>8s}")
    for name, v in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:34s} {med:14.6g} {q1:14.6g} {q3:14.6g} {min(v):14.6g} "
              f"{max(v):14.6g} {spread:8.2%}  {units[name]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

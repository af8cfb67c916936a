#!/usr/bin/env python3
"""Run one workload under several seeds and report each metric's spread.

Usage, from the repository root:

    python3 perfbench/spread.py --workload <name> [--runs 10] [--seconds 45]
                                [--trace 0] [--first-seed 1]

Runs perfbench/run.py once per seed (first-seed, first-seed + 1, ...) and
prints, per metric, the median of the runs' values, the first and third
quartiles as Python's statistics.quantiles(values, n=4) gives them, and
the distance between the quartiles as a share of the median: the
run-to-run spread the bounds in BENCHMARK.json are checked against.
Exits non-zero if any run fails or reports an incorrect result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        command = [
            sys.executable,
            os.path.join(HERE, "run.py"),
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: incorrect result {lines[-1]}", file=sys.stderr)
            return 1
        results.append(result)
        values = ", ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: {result['attempted']} ops; {values}", file=sys.stderr)

    print(f"{'metric':<36} {'unit':<6} {'median':>14} {'q1':>14} {'q3':>14} {'(q3-q1)/median':>15}")
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, 0, median)
        share = (q3 - q1) / median if median else float("nan")
        print(f"{name:<36} {first['unit']:<6} {median:>14.6g} {q1:>14.6g} {q3:>14.6g} {share:>15.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

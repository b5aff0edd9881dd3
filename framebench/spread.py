#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

    python3 framebench/spread.py --workload table2_tcp --seeds 1-10 --seconds 10

For every metric of the result JSON it prints the median, the quartiles
(statistics.quantiles(values, n=4)) and the interquartile range as a share
of the median, next to the metric's bound from BENCHMARK.json, so a change
to the benchmark can be checked for steadiness before the full run.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-5")
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--values", action="store_true",
                        help="also print each run's value, in seed order")
    args = parser.parse_args()

    bounds = {}
    spec_path = ROOT / "BENCHMARK.json"
    if spec_path.exists():
        spec = json.loads(spec_path.read_text())
        bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values = {}
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(ROOT / "framebench" / "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print("seed %d failed (rc=%d)\n%s" % (seed, out.returncode,
                                                  out.stderr[-2000:]))
            return 1
        result = json.loads(lines[-1])
        print("seed %d: correct=%s attempted=%d failed=%d" % (
            seed, result["correct"], result["attempted"], result["failed"]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print("%-40s %14s %14s %14s %8s %6s" % ("metric", "median", "q1", "q3",
                                           "iqr/med", "bound"))
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print("%-40s %14.4f %14.4f %14.4f %8.4f %6s" % (
            name, med, q1, q3, spread, "" if bound is None else bound))
        if args.values:
            print("    " + " ".join("%.4g" % v for v in vals))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run one workload on several seeds and report each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workload table2 --seeds 1-10

For every end-to-end metric in BENCHMARK.json this prints the median of
the per-run values, the distance between their first and third
quartiles (statistics.quantiles, n=4) as a share of the median, and the
metric's bound.  A spread above the bound means the workload is not
steady enough for that bound.  Runs whose output checks failed are
still measured and are named.  Exits 1 when a run fails or reports
incorrect outputs, or when a spread exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds_of(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    values = {}
    ok = True
    for seed in seeds_of(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ]
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if out.returncode != 0 or "metrics" not in result:
            print("seed %d: run failed (exit %d)" % (seed, out.returncode))
            ok = False
            continue
        if not result["correct"]:
            print("seed %d: %d of %d operations failed their checks" % (seed, result["failed"], result["attempted"]))
            ok = False
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print("seed %d: %s" % (seed, " ".join("%s=%.4g" % kv for kv in sorted(row.items()))))
        for k, v in row.items():
            values.setdefault(k, []).append(v)
    print("%-14s %12s %9s %7s" % ("metric", "median", "spread", "bound"))
    for m in bench["end_to_end"]:
        vs = values.get(m["name"], [])
        if len(vs) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        flag = ""
        if spread > m["bound"]:
            flag, ok = "  OVER", False
        elif spread > m["bound"] / 3:
            flag = "  (above a third of the bound)"
        print("%-14s %12.5g %8.2f%% %6.0f%%%s" % (m["name"], med, 100 * spread, 100 * m["bound"], flag))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

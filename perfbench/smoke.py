#!/usr/bin/env python3
"""Smoke self-test of the benchmark.

Usage, from the root of a checkout:

    python3 perfbench/smoke.py

Runs every workload once at a tiny size (--tiny), untraced and traced,
and asserts that each run prints its header and, as its last line, a
result whose metrics are exactly the declared ones, each with its
declared unit: the end-to-end metrics of BENCHMARK.json untraced, the
per-layer metrics traced.  It checks that layers.json maps every
per-layer metric exactly once, and that the command fails without
printing a result in a directory holding only BENCHMARK.json and
perfbench/.  Exits 1 on the first violation, and at the end when any
run's output checks failed.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fail(msg):
    print("smoke: FAIL: " + msg)
    sys.exit(1)


def run(bench, workload, trace, cwd=ROOT):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", "1", "--seconds", "2", "--trace", str(trace), "--tiny",
    ]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=600)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    layers = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    listed = [w["name"] for w in bench["workloads"]]
    with open(os.path.join(ROOT, "perfbench", "layers.json")) as f:
        mapped = [name for layer in json.load(f) for name in layer["metrics"]]
    declared = [name for name, _ in layers]
    if sorted(mapped) != sorted(declared):
        fail("layers.json maps %s; declared per-layer metrics are %s" % (sorted(mapped), sorted(declared)))
    failures = []
    for workload in listed:
        for trace in (0, 1):
            out = run(bench, workload, trace)
            lines = out.stdout.strip().splitlines()
            if len(lines) < 2 or "header" not in json.loads(lines[0]):
                fail("%s trace %d: no header line" % (workload, trace))
            header = json.loads(lines[0])["header"]
            for key in ("nproc", "recommended_domain_count", "ocaml_version", "git_commit", "seed", "jobs"):
                if key not in header:
                    fail("%s: header lacks %s" % (workload, key))
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                fail("%s trace %d: result keys %s" % (workload, trace, sorted(result)))
            expected = e2e if trace == 0 else layers
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != dict(expected):
                missing = sorted(set(dict(expected)) - set(got))
                extra = sorted(set(got) - set(dict(expected)))
                wrong = sorted(k for k, u in expected if k in got and got[k] != u)
                fail("%s trace %d: missing %s, undeclared %s, wrong unit %s"
                     % (workload, trace, missing, extra, wrong))
            if result["attempted"] < 1:
                fail("%s trace %d: nothing attempted" % (workload, trace))
            if out.returncode != 0:
                fail("%s trace %d: exit %d" % (workload, trace, out.returncode))
            if not result["correct"]:
                failures.append("%s trace %d" % (workload, trace))
            print("smoke: %-12s trace %d: %d metrics, %d attempted, %d failed%s"
                  % (workload, trace, len(got), result["attempted"], result["failed"],
                     "" if result["correct"] else "  (checks failed)"))
    bare = os.path.join(ROOT, ".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"))
        out = run(bench, listed[0], 0, cwd=bare)
        if out.returncode == 0 or out.stdout.strip():
            fail("the command succeeded or printed a result outside a checkout")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if failures:
        fail("output checks failed in %s (stderr names each)" % ", ".join(failures))
    print("smoke: ok")


if __name__ == "__main__":
    main()

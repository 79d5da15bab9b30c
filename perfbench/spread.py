#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload office-exact --seeds 1-10

Runs perfbench/run.py once per seed (untraced, run_seconds from
BENCHMARK.json unless --seconds is given) and prints, per end-to-end metric,
the median, the spread (distance between the first and third quartile as a
share of the median) and the metric's bound. A spread above a third of the
bound is flagged; one above the bound fails. Exit code 1 if any metric fails
or any run is incorrect.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def seeds_arg(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=int)
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = a.seconds or spec["run_seconds"]

    values = {m["name"]: [] for m in spec["end_to_end"]}
    bad_runs = 0
    for seed in a.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", a.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("seed %d: run failed (exit %d)" % (seed, proc.returncode))
            bad_runs += 1
            continue
        res = json.loads(lines[-1])
        if not res["correct"] or res["failed"]:
            bad_runs += 1
        for name in values:
            values[name].append(res["metrics"][name]["value"])
        print("seed %d: correct=%s attempted=%d failed=%d %s" % (
            seed, res["correct"], res["attempted"], res["failed"],
            " ".join("%s=%.6g" % (k, v[-1]) for k, v in values.items())), flush=True)

    failing = bad_runs > 0
    print("%-16s %14s %9s %7s  %s" % ("metric", "median", "spread", "bound", "verdict"))
    for m in spec["end_to_end"]:
        xs = values[m["name"]]
        if len(xs) < 2:
            continue
        q1, _, q3 = statistics.quantiles(xs, n=4)
        med = statistics.median(xs)
        spread = (q3 - q1) / med
        verdict = "ok"
        if spread > m["bound"]:
            verdict = "FAIL" if m["name"] != "setup_s" else "wide (setup_s is not gated on spread)"
            failing = failing or m["name"] != "setup_s"
        elif spread > m["bound"] / 3:
            verdict = "above a third of the bound"
        print("%-16s %14.6g %9.4f %7.3f  %s" % (m["name"], med, spread, m["bound"], verdict))
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())

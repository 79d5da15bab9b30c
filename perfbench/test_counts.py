#!/usr/bin/env python3
"""Count stability: two traced runs of a workload on one seed must report
exactly the same deterministic counters (derivations, pushes, horizon
clamps, memory, hit rate, relative error).

    python3 perfbench/test_counts.py                # every workload
    python3 perfbench/test_counts.py mall-approx    # one workload

Each run is cut to its first pass (--seconds 1), where these counters come
from. Exit code 1 if any counter differs or a run fails.
"""

import json
import os
import re
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SEED = 7

# per-layer names whose values are counts, not times
COUNTERS = re.compile(r"^(estimator\.(pop_derivations|flow_derivations|lookups|clamped_lookups|max_step)"
                      r"|core\.(pushes|settled|queue_peak|path_doors|replans)|sim\.world_steps)(\..+)?$")


def counters(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        raise AssertionError("%s: run failed (exit %d)" % (workload, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    out = {k: v["value"] for k, v in res["metrics"].items() if COUNTERS.match(k)}
    line = next(l for l in lines if "deterministic counters" in l)
    out.update(dict(kv.split("=") for kv in line.split(":", 1)[1].split()))
    out["failed"] = res["failed"]
    return out


def workloads():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [w["name"] for w in json.load(f)["workloads"]]


class CountStability(unittest.TestCase):
    selected = None

    def test_counters_repeat_exactly(self):
        for w in self.selected or workloads():
            with self.subTest(workload=w):
                a, b = counters(w), counters(w)
                diff = {k: (a[k], b.get(k)) for k in a if a[k] != b.get(k)}
                self.assertEqual(diff, {}, "%s: counters differ between two runs on seed %d" % (w, SEED))
                self.assertIn("mem_kb", a)
                self.assertIn("estimator.clamped_lookups", a)


if __name__ == "__main__":
    CountStability.selected = sys.argv[1:] or None
    unittest.main(argv=sys.argv[:1])

#!/usr/bin/env python3
"""Crowd-aware query benchmark.

    python3 perfbench/run.py --workload office-exact --seed 1 --seconds 20 --trace 0

Builds the program and the benchmark from source (see build.py), then runs
one workload in a fresh JVM. The JVM prints the metrics grouped by workload,
with units, and ends with one JSON line; this script checks that line and
repeats it as the last line of its own output. Exits non-zero, without a
result line, if the build, the run or the output check fails.
"""

import argparse
import json
import os
import subprocess
import sys
import threading

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

WORKLOADS = ("office-exact", "mall-approx")
RUN_TIMEOUT_S = 170

JVM_OPTS = [
    "-Xms2g", "-Xmx2g", "-XX:+AlwaysPreTouch", "-Xss16m", "-XX:+UseSerialGC",
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
]


def check_result(line, trace):
    """Parses the JVM's result line and checks its shape against BENCHMARK.json."""
    res = json.loads(line)
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys %s" % sorted(res))
    if not isinstance(res["attempted"], int) or res["attempted"] < 1 or not isinstance(res["failed"], int):
        raise ValueError("attempted/failed must be whole numbers, attempted >= 1")
    spec_path = os.path.join(build.ROOT, "BENCHMARK.json")
    if os.path.exists(spec_path):
        with open(spec_path) as f:
            spec = json.load(f)
        want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        if want != got:
            raise ValueError("metrics differ from BENCHMARK.json: missing %s, extra %s, units %s" % (
                sorted(set(want) - set(got)), sorted(set(got) - set(want)),
                sorted(k for k in set(want) & set(got) if want[k] != got[k])))
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = ap.parse_args()

    try:
        classes, jars = build.build()
    except (build.BuildError, subprocess.TimeoutExpired) as e:
        print("[perfbench] build failed: %s" % e, file=sys.stderr)
        return 2

    out = build.out_dir()
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("BENCH_")}
    env["SPARK_LOCAL_IP"] = "127.0.0.1"
    env["SPARK_LOCAL_DIRS"] = os.path.join(out, "spark-local")
    cmd = (["java"] + JVM_OPTS + [
        "-Dlog4j2.configurationFile=" + os.path.join(build.BENCH_DIR, "log4j2.properties"),
        "-Djava.io.tmpdir=" + tmp,
        "-cp", classes + os.pathsep + os.path.join(jars, "*"),
        "repro.perfbench.Main",
        "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
        "--trace", str(a.trace), "--out", out,
    ])
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=build.ROOT)
    timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    timer.start()
    last = None
    try:
        for line in proc.stdout:
            line = line.rstrip("\n")
            if line.startswith("{"):
                last = line
            else:
                print(line, flush=True)
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or last is None:
        print("[perfbench] run failed (exit %s)" % code, file=sys.stderr)
        return 3
    try:
        res = check_result(last, a.trace == 1)
    except (ValueError, KeyError) as e:
        print("[perfbench] bad result line: %s" % e, file=sys.stderr)
        return 4
    print(json.dumps(res), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

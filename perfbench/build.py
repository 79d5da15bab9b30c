"""Build file of the benchmark: compiles the program (src/main/scala) and the
benchmark's own sources (perfbench/src) with the Scala compiler that ships in
the Spark distribution (the same jars the sbt build compiles against), into
<out>/classes.

A build is reused while the sources, the compiler and the Spark jars are
unchanged. Run on its own with `python3 perfbench/build.py`.
"""

import glob
import hashlib
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
PROGRAM_SRC = os.path.join(ROOT, "src", "main", "scala")
BENCH_SRC = os.path.join(BENCH_DIR, "src")


class BuildError(Exception):
    pass


def out_dir():
    """Build directory: $CARGO_TARGET_DIR (relative to the root) or .bench_build."""
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, d, "perfbench")


def spark_jars():
    """The jars of the Spark distribution: $SPARK_HOME, else the first
    spark-submit on the PATH whose distribution has a Scala compiler."""
    homes = [os.environ.get("SPARK_HOME", "")]
    for d in os.environ.get("PATH", "").split(os.pathsep):
        submit = os.path.join(d, "spark-submit")
        if os.path.isfile(submit):
            homes.append(os.path.dirname(os.path.dirname(os.path.realpath(submit))))
    for home in homes:
        jars = os.path.join(home, "jars")
        if home and glob.glob(os.path.join(jars, "scala-compiler-*.jar")):
            return jars
    raise BuildError("no Spark distribution with a Scala compiler found (set SPARK_HOME)")


def sources():
    if not os.path.isdir(PROGRAM_SRC):
        raise BuildError("program sources not found at %s" % PROGRAM_SRC)
    srcs = sorted(glob.glob(os.path.join(PROGRAM_SRC, "**", "*.scala"), recursive=True))
    srcs += sorted(glob.glob(os.path.join(BENCH_SRC, "**", "*.scala"), recursive=True))
    if not srcs:
        raise BuildError("no Scala sources found")
    return srcs


def stamp(srcs, jars):
    h = hashlib.sha256()
    for p in srcs:
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    h.update("\n".join(sorted(os.listdir(jars))).encode())
    return h.hexdigest()


def build(log=sys.stderr):
    """Compiles if needed and returns (classes_dir, spark_jars_dir)."""
    jars = spark_jars()
    srcs = sources()
    out = out_dir()
    classes = os.path.join(out, "classes")
    stamp_file = os.path.join(out, "classes.stamp")
    want = stamp(srcs, jars)
    if os.path.isdir(classes) and os.path.exists(stamp_file):
        with open(stamp_file) as f:
            if f.read().strip() == want:
                return classes, jars
    os.makedirs(out, exist_ok=True)
    tmp = classes + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    print("[perfbench] compiling %d Scala sources" % len(srcs), file=log, flush=True)
    cmd = ["java", "-Xss8m", "-Xmx2g", "-cp", os.path.join(jars, "*"), "scala.tools.nsc.Main",
           "-usejavacp", "-nowarn", "-d", tmp] + srcs
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=800)
    if proc.returncode != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        raise BuildError("compilation failed:\n" + proc.stdout[-4000:])
    shutil.rmtree(classes, ignore_errors=True)
    os.rename(tmp, classes)
    with open(stamp_file, "w") as f:
        f.write(want + "\n")
    return classes, jars


if __name__ == "__main__":
    try:
        print(build()[0])
    except (BuildError, subprocess.TimeoutExpired) as e:
        print("[perfbench] build failed: %s" % e, file=sys.stderr)
        sys.exit(2)

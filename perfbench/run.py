#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run compiles the repository's main sources together with the
benchmark code (perfbench/build.sbt) into .bench_build/; later runs reuse
that build while the sources are unchanged. The last line of standard output
is {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.

--tiny and --inject <out-of-range|wrong-result> exist for the benchmark's own
tests (test_perfbench.py): tiny budgets, and deliberately corrupted outputs
that the correctness checks must count as failures.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
SOURCES = [os.path.join(ROOT, "src", "main", "scala"), os.path.join(BENCH_DIR, "src"),
           os.path.join(BENCH_DIR, "build.sbt"), os.path.join(BENCH_DIR, "project", "build.properties")]
WORKLOADS = ["sim-locat-online", "sim-sota", "real-spark"]
BUILD_TIMEOUT_S = 840
# Gated workloads must finish within 180 s; real-spark is run by hand and its
# set-up alone (seven DuckDB checks) can take two minutes on a loaded host.
RUN_TIMEOUT_S = {"real-spark": 600}

# Spark 4 on JDK 17 needs these packages opened, as in the repository's build.sbt.
JVM_OPENS = ["java.base/" + p + "=ALL-UNNAMED" for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_stamp():
    h = hashlib.sha256()
    for top in SOURCES:
        if not os.path.exists(top):
            fail("missing %s: run from a checkout of the repository" % os.path.relpath(top, ROOT))
        files = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for path in files:
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def classpath():
    """Build with sbt unless a build of the same sources exists; return the classpath."""
    stamp = source_stamp()
    cp_file = os.path.join(BUILD_DIR, "classpath.txt")
    if os.path.exists(cp_file):
        with open(cp_file) as fh:
            lines = fh.read().splitlines()
        if len(lines) == 2 and lines[0] == stamp:
            return lines[1]
    os.makedirs(BUILD_DIR, exist_ok=True)
    try:
        out = subprocess.run(["sbt", "--batch", "-Dsbt.log.noformat=true", "export Compile/fullClasspath"],
                             cwd=BENCH_DIR, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                             text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    lines = [l for l in out.stdout.splitlines() if l and not l.startswith("[")]
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stdout[-4000:])
        fail("build failed")
    with open(cp_file, "w") as fh:
        fh.write(stamp + "\n" + lines[-1] + "\n")
    return lines[-1]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--inject", choices=["out-of-range", "wrong-result"])
    args = ap.parse_args()

    cp = classpath()
    # Spark and DuckDB scratch files; a killed run may have left some behind.
    tmp = os.path.join(BUILD_DIR, "tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    heap = "3g" if args.workload == "real-spark" else "1g"
    cmd = (["java", "-Xmx" + heap, "-Djava.io.tmpdir=" + tmp,
            "-Dlog4j2.configurationFile=" + os.path.join(BENCH_DIR, "log4j2.properties")]
           + ["--add-opens=" + o for o in JVM_OPENS]
           + ["-cp", cp, "repro.perfbench.Main", "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
           + (["--tiny"] if args.tiny else [])
           + (["--inject", args.inject] if args.inject else []))
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S.get(args.workload, 175))
    except subprocess.TimeoutExpired:
        fail("run timed out")
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        fail("benchmark exited with code %d" % run.returncode)
    result = json.loads(lines[-1])

    want = expected_metrics(args.trace)
    got = result["metrics"]
    missing = [n for n, u in want.items() if n not in got or got[n]["unit"] != u]
    if missing:
        fail("metrics missing or with the wrong unit: " + ", ".join(missing))
    bad = [n for n in want if not isinstance(got[n]["value"], (int, float))]
    if bad:
        fail("metrics without a value: " + ", ".join(bad))
    result["metrics"] = {n: got[n] for n in want}
    print(json.dumps(result))


if __name__ == "__main__":
    main()

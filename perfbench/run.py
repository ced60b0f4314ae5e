#!/usr/bin/env python3
"""Builds and runs the µBE benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload paper_loop --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --test        # builds and runs the benchmark's tests

The first call configures and builds perfbench/ (which compiles ../src) into
.bench_build/. The C++ binary measures and checks; this script keeps exactly
the metrics BENCHMARK.json lists (end_to_end with --trace 0, per_layer with
--trace 1) and prints them as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A per-layer metric that the workload does not load is reported as 0. The
exit code is non-zero when the build fails, the binary fails, or any output
check fails (the result line is still printed in the last case).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
TRACE_DIR = os.path.join(ROOT, ".bench_trace")
BINARY = os.path.join(BUILD_DIR, "mube_perfbench")
TEST_BINARY = os.path.join(BUILD_DIR, "perfbench_test")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("engine sources not found under %s/src" % ROOT)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", target,
                  "-j", "4"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def run_tests():
    build("perfbench_test")
    sys.exit(subprocess.run([TEST_BINARY]).returncode)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's tests")
    args = parser.parse_args()
    if args.test:
        run_tests()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    meta = load_json(os.path.join(HERE, "benchmark_meta.json"))
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail("unknown workload '%s'" % args.workload)
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    build("mube_perfbench")
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--slo-ms", str(meta["serving_slo_ms"])]
    if args.trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        cmd += ["--trace-dir", TRACE_DIR]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out after %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        fail("benchmark binary failed (exit %d)" % proc.returncode)
    for line in lines[:-1]:
        print(line)
    raw = json.loads(lines[-1])

    metrics = {}
    for spec in wanted:
        got = raw["metrics"].get(spec["name"])
        if got is None:
            if not args.trace:
                fail("workload did not report " + spec["name"])
            got = {"value": 0, "unit": spec["unit"]}
        if got["unit"] != spec["unit"]:
            fail("unit of %s is %s, BENCHMARK.json says %s"
                 % (spec["name"], got["unit"], spec["unit"]))
        metrics[spec["name"]] = {"value": got["value"], "unit": spec["unit"]}
    attempted, failed = int(raw["attempted"]), int(raw["failed"])
    if attempted == 0:  # the workload failed before its first operation
        attempted, failed = 1, 1
    result = {"correct": bool(raw["correct"]) and failed == 0,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Entry point of the repository benchmark (see BENCHMARK.json).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the opmap libraries, the `opmap` CLI
and the benchmark into .bench_build/ (CMake, from perfbench/CMakeLists.txt,
without touching the repository's own build files), runs the percentile
self-test, then one workload. The last line of standard output is one JSON
object: correct, attempted, failed, and the metrics BENCHMARK.json declares
for the mode (end_to_end for --trace 0, per_layer for --trace 1), each with
its unit. Build output and diagnostics go to standard error.
"""
import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isdir(os.path.join(ROOT, "src", "opmap")):
        fail("the opmap sources (src/opmap) are not beside perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "perfbench", "perfbench_selftest"])
    steps.append([os.path.join(BUILD, "perfbench_selftest")])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("step failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail("unknown workload " + args.workload)
    build()

    workdir = os.path.join(BUILD, "run", "%s-%d" % (args.workload, os.getpid()))
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
           "--workdir=" + workdir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload did not finish within %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        fail("workload exited with code %d" % proc.returncode)
    for line in lines[:-1]:
        print(line)
    raw = json.loads(lines[-1])

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in declared:
        value = raw["metrics"].get(m["name"])
        if value is None or not math.isfinite(value):
            if not args.trace:
                fail("end-to-end metric %s was not measured" % m["name"])
            value = 0.0  # a layer this workload does not exercise
        if not args.trace and value <= 0:
            fail("end-to-end metric %s measured %r" % (m["name"], value))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": bool(raw["correct"]),
                      "attempted": int(raw["attempted"]),
                      "failed": int(raw["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()

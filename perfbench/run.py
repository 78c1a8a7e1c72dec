#!/usr/bin/env python3
"""Host benchmark: build perfbench from the repository sources, run one
workload, and print its result as the last line of standard output.

    python3 perfbench/run.py --service-rate 55 --workload flat_sort \\
        --seed 1 --seconds 10 --trace 0 [--small] [--corrupt]

Run from the repository root.  The build goes to .bench_build/perfbench.
The printed JSON holds every metric BENCHMARK.json lists for the mode:
the end-to-end metrics untraced (--trace 0), the per-layer metrics traced
(--trace 1).  A per-layer metric of a layer the workload never calls is
reported as 0.  Exits non-zero, printing no result, when the build, the
run or the metric check fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", "4"],
    ]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step %s failed: %s" % (cmd[:2], e))
        if done.returncode != 0:
            fail("build step %s exited %d" % (cmd[:2], done.returncode))


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--service-rate", type=float,
                        help="service_sort arrivals per second")
    parser.add_argument("--small", action="store_true",
                        help="tiny inputs (the benchmark's own tests)")
    parser.add_argument("--corrupt", action="store_true",
                        help="damage every output before its check")
    args = parser.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.service_rate is not None:
        cmd += ["--service-rate", repr(args.service_rate)]
    if args.small:
        cmd.append("--small")
    if args.corrupt:
        cmd.append("--corrupt")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    if done.returncode != 0:
        fail("perfbench exited %d" % done.returncode)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("perfbench printed no result")
    result = json.loads(lines[-1])

    measured = result["metrics"]
    metrics = {}
    for m in expected_metrics(args.trace):
        got = measured.pop(m["name"], None)
        if got is None:
            if not args.trace:
                fail("end-to-end metric %s missing" % m["name"])
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail("metric %s has unit %s, BENCHMARK.json says %s"
                 % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = got
    if measured:
        fail("metrics missing from BENCHMARK.json: " + ", ".join(measured))

    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()

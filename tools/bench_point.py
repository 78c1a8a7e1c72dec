#!/usr/bin/env python3
"""Record one point of the host-benchmark trajectory and compare it with
the newest point already recorded.

    python3 tools/bench_point.py --pr N [--seeds 5] [--checkout DIR]

For every workload in BENCHMARK.json this runs the benchmark command
(BENCHMARK.json "command", i.e. perfbench/run.py) once per seed untraced
and once traced, from the repository root or from --checkout DIR (for
example a clone of an older commit, to measure a "before" point on the
same host).  It writes bench/trajectory/BENCH_<pr>.json with, per
workload, the median and quartiles of every end-to-end metric, the
traced run's per-layer metrics, and the operation counts.

It then compares the new point with the newest existing one (the
highest PR number below --pr) using the bounds in BENCHMARK.json, and
prints one delta line, suitable for CHANGES.md:

  - a metric is "better"/"worse" when its median moved by more than its
    bound in that direction;
  - it is "unresolved" when the older point's interquartile spread is
    itself wider than the bound, so the bound cannot tell noise from a
    change, unless every new run reads better than every old one;
  - otherwise it is within its bound and not listed.

The comparison only reports; it never fails the command.  Exits non-zero
when a benchmark run fails or reports failed operations.
"""
import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRAJECTORY = os.path.join(ROOT, "bench", "trajectory")


def fail(message):
    print("bench_point.py: " + message, file=sys.stderr)
    sys.exit(1)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def quartiles(values):
    """(q1, median, q3) of `values`, by linear interpolation."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[1], q[2]


def run_once(spec, checkout, workload, seed, seconds, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", repr(seconds),
                             "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail("%s seed %d trace %d exited %d"
             % (workload, seed, trace, done.returncode))
    result = json.loads(lines[-1])
    if result["failed"] != 0 or not result["correct"]:
        fail("%s seed %d trace %d: %d of %d operations failed"
             % (workload, seed, trace, result["failed"],
                result["attempted"]))
    return result


def measure(spec, checkout, workload, seeds, seconds):
    runs = []
    for seed in seeds:
        runs.append(run_once(spec, checkout, workload, seed, seconds, 0))
        print("  %s seed %d: %s" % (workload, seed, " ".join(
            "%s=%.4g" % (k, v["value"])
            for k, v in runs[-1]["metrics"].items())), file=sys.stderr)
    traced = run_once(spec, checkout, workload, seeds[0], seconds, 1)
    end_to_end = {}
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        q1, med, q3 = quartiles(values)
        end_to_end[m["name"]] = {"unit": m["unit"], "median": med,
                                 "q1": q1, "q3": q3, "samples": values}
    return {
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "end_to_end": end_to_end,
        "traced_seed": seeds[0],
        "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
    }


def git_commit(checkout):
    done = subprocess.run(["git", "describe", "--always", "--dirty"],
                          cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=False)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def host():
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": model, "cpus": os.cpu_count()}


def newest_point(below):
    best = None
    if not os.path.isdir(TRAJECTORY):
        return None
    for name in os.listdir(TRAJECTORY):
        m = re.fullmatch(r"BENCH_(\d+)\.json", name)
        if m and int(m.group(1)) < below:
            if best is None or int(m.group(1)) > best:
                best = int(m.group(1))
    if best is None:
        return None
    with open(os.path.join(TRAJECTORY, "BENCH_%d.json" % best)) as f:
        return json.load(f)


def compare(spec, old, new):
    """Delta line of `new` against `old` under the BENCHMARK.json bounds."""
    better, worse, unresolved = [], [], []
    for workload, cur in new["workloads"].items():
        prev = old["workloads"].get(workload)
        if prev is None:
            continue
        for m in spec["end_to_end"]:
            a = prev["end_to_end"][m["name"]]
            b = cur["end_to_end"][m["name"]]
            if a["median"] == 0:
                continue
            change = (b["median"] - a["median"]) / a["median"]
            spread = (a["q3"] - a["q1"]) / a["median"]
            label = "%s %s %+.0f%%" % (workload, m["name"], 100 * change)
            gain = change if m["better"] == "higher" else -change
            sign = 1 if m["better"] == "higher" else -1
            separated = (min(sign * v for v in b["samples"]) >
                         max(sign * v for v in a["samples"]))
            if spread > m["bound"] and not separated:
                unresolved.append("%s (spread %.0f%%)" % (label,
                                                          100 * spread))
            elif gain > m["bound"]:
                better.append(label)
            elif gain < -m["bound"]:
                worse.append(label)
    parts = ["BENCH_%s vs BENCH_%s (median of %d seeds)"
             % (new["pr"], old["pr"], len(new["seeds"]))]
    parts.append("better: " + (", ".join(better) or "none"))
    parts.append("worse: " + (", ".join(worse) or "none"))
    parts.append("unresolved: " + (", ".join(unresolved) or "none"))
    parts.append("all other end-to-end metrics within their bounds")
    return "; ".join(parts) + "."


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True,
                        help="number of the point (BENCH_<pr>.json)")
    parser.add_argument("--seeds", type=int, default=5,
                        help="untraced runs per workload (seeds 1..N)")
    parser.add_argument("--checkout", default=ROOT,
                        help="checkout to run the benchmark in")
    args = parser.parse_args()
    if args.seeds < 1:
        fail("--seeds must be at least 1")

    spec = load_spec()
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    seeds = list(range(1, args.seeds + 1))
    checkout = os.path.abspath(args.checkout)

    point = {"pr": args.pr, "commit": git_commit(checkout), "host": host(),
             "command": spec["command"], "seconds": seconds, "seeds": seeds,
             "workloads": {}}
    for name in names:
        print("bench_point.py: %s (%d seeds + 1 traced)" % (name, len(seeds)),
              file=sys.stderr)
        point["workloads"][name] = measure(spec, checkout, name, seeds,
                                           seconds)

    os.makedirs(TRAJECTORY, exist_ok=True)
    path = os.path.join(TRAJECTORY, "BENCH_%d.json" % args.pr)
    with open(path, "w") as f:
        json.dump(point, f, indent=1, sort_keys=True)
        f.write("\n")
    print("wrote " + os.path.relpath(path, ROOT))

    old = newest_point(args.pr)
    if old is None:
        print("no earlier point to compare against")
    else:
        print(compare(spec, old, point))


if __name__ == "__main__":
    main()

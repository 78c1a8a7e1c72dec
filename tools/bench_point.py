#!/usr/bin/env python3
"""Record one point of the host-benchmark trajectory and compare it.

    python3 tools/bench_point.py --pr N [--seeds 5] [--checkout DIR]
                                 [--parent DIR] [--workloads W,...]

For every workload in BENCHMARK.json (or those --workloads names) this
runs the benchmark command (BENCHMARK.json "command", i.e.
perfbench/run.py) once per seed untraced and once traced, from the
repository root or from --checkout DIR.  It writes
bench/trajectory/BENCH_<pr>.json with, per workload, the median and
quartiles of every end-to-end metric, the traced run's per-layer
metrics, and the operation counts.

With --parent DIR (a clone of the parent commit), every untraced seed
runs twice, once in the parent and once in the change, interleaved and
alternating which side runs first: P, C, C, P, P, C, ...  One line then
judges the change from those same-session pairs only:

  - a metric is "better" when the change wins at least 9 of every 10
    pairs and its median beats the parent's by more than the parent
    runs' interquartile range; "worse" is the mirror image;
  - it is "unresolved" when the medians differ by more than the
    metric's bound but the pairs do not decide;
  - otherwise the pairs show no change and it is not listed.

Without --parent it compares the new point with the newest existing one
(the highest PR number below --pr).  That comparison is cross-session:
the host's memory ceiling drifts between sessions, so it prints every
throughput beside the throughput divided by the same point's traced
host.ddr_max_gbps, and judges throughputs and times on those
ceiling-normalised values:

  - a metric is "better"/"worse" when its median moved by more than its
    bound in that direction;
  - it is "unresolved" when the older point's interquartile spread is
    itself wider than the bound, so the bound cannot tell noise from a
    change, unless every new run reads better than every old one;
  - otherwise it is within its bound and not listed.

The comparisons only report; they never fail the command.  Exits
non-zero when a benchmark run fails or reports failed operations.
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


def summarise(spec, runs, traced, seeds):
    """The point entry of one workload from its untraced and traced runs."""
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


def log_run(label, workload, seed, run):
    print("  %s%s seed %d: %s" % (label, workload, seed, " ".join(
        "%s=%.4g" % (k, v["value"]) for k, v in run["metrics"].items())),
        file=sys.stderr)


def measure(spec, checkout, workload, seeds, seconds, parent=None):
    """The point entry of `workload` run in `checkout`.  With `parent`,
    each seed also runs in the parent checkout, first for every other
    seed, and the entry gains a "parent" key holding the parent's
    untraced runs' entry."""
    runs, parent_runs = [], []
    for i, seed in enumerate(seeds):
        sides = [(parent_runs, parent, "parent "), (runs, checkout, "")]
        if parent is None:
            sides = sides[1:]
        elif i % 2 == 1:
            sides.reverse()
        for out, where, label in sides:
            out.append(run_once(spec, where, workload, seed, seconds, 0))
            log_run(label, workload, seed, out[-1])
    traced = run_once(spec, checkout, workload, seeds[0], seconds, 1)
    entry = summarise(spec, runs, traced, seeds)
    if parent is not None:
        entry["parent"] = summarise(spec, parent_runs, {"metrics": {}},
                                    seeds)
    return entry


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


def ceiling(entry):
    """The traced run's host.ddr_max_gbps of a workload entry, or None."""
    value = entry.get("per_layer", {}).get("host.ddr_max_gbps")
    return value if value else None


def normalised(value, unit, gbps):
    """`value` with the memory ceiling divided out: a throughput per GB/s
    of ceiling, a time times the ceiling; other units are unchanged."""
    if gbps is None:
        return value
    if unit == "MiB/s":
        return value / gbps
    if unit == "s":
        return value * gbps
    return value


def compare(spec, old, new):
    """Cross-session delta line of `new` against `old` under the
    BENCHMARK.json bounds, on ceiling-normalised values."""
    better, worse, unresolved, shown = [], [], [], []
    for workload, cur in new["workloads"].items():
        prev = old["workloads"].get(workload)
        if prev is None:
            continue
        # Normalise only when both points measured their ceiling.
        g_old, g_new = ceiling(prev), ceiling(cur)
        if g_old is None or g_new is None:
            g_old = g_new = None
        for m in spec["end_to_end"]:
            a = prev["end_to_end"][m["name"]]
            b = cur["end_to_end"][m["name"]]
            a_med = normalised(a["median"], m["unit"], g_old)
            b_med = normalised(b["median"], m["unit"], g_new)
            if m["unit"] == "MiB/s":
                shown.append(
                    "%s %s %.4g -> %.4g (%s)" % (
                        workload, m["name"], a["median"], b["median"],
                        "per GB/s of ceiling %.3g -> %.3g" % (a_med, b_med)
                        if g_old is not None else "no ceiling measured"))
            if a_med == 0:
                continue
            change = (b_med - a_med) / a_med
            spread = (a["q3"] - a["q1"]) / a["median"]
            label = "%s %s %+.0f%%" % (workload, m["name"], 100 * change)
            gain = change if m["better"] == "higher" else -change
            sign = 1 if m["better"] == "higher" else -1
            separated = (
                min(sign * normalised(v, m["unit"], g_new)
                    for v in b["samples"]) >
                max(sign * normalised(v, m["unit"], g_old)
                    for v in a["samples"]))
            if spread > m["bound"] and not separated:
                unresolved.append("%s (spread %.0f%%)" % (label,
                                                          100 * spread))
            elif gain > m["bound"]:
                better.append(label)
            elif gain < -m["bound"]:
                worse.append(label)
    parts = ["BENCH_%s vs BENCH_%s, cross-session (median of %d seeds; "
             "throughputs and times judged per GB/s of the traced "
             "host.ddr_max_gbps)" % (new["pr"], old["pr"],
                                     len(new["seeds"]))]
    parts.append("throughput: " + (", ".join(shown) or "none"))
    parts.append("better: " + (", ".join(better) or "none"))
    parts.append("worse: " + (", ".join(worse) or "none"))
    parts.append("unresolved: " + (", ".join(unresolved) or "none"))
    parts.append("all other end-to-end metrics within their bounds")
    return "; ".join(parts) + "."


def compare_pairs(spec, point):
    """Same-session delta line of the change's runs in `point` against the
    parent's, which ran interleaved with them, one pair per seed."""
    better, worse, unresolved = [], [], []
    pairs = 0
    for workload, cur in point["workloads"].items():
        prev = cur.get("parent")
        if prev is None:
            continue
        for m in spec["end_to_end"]:
            a = prev["end_to_end"][m["name"]]
            b = cur["end_to_end"][m["name"]]
            pairs = len(a["samples"])
            if a["median"] == 0:
                continue
            sign = 1 if m["better"] == "higher" else -1
            wins = sum(sign * c > sign * p
                       for p, c in zip(a["samples"], b["samples"]))
            losses = sum(sign * c < sign * p
                         for p, c in zip(a["samples"], b["samples"]))
            change = (b["median"] - a["median"]) / a["median"]
            gain = sign * change
            spread = (a["q3"] - a["q1"]) / a["median"]
            label = "%s %s %+.1f%%" % (workload, m["name"], 100 * change)
            if gain > spread and 10 * wins >= 9 * pairs:
                better.append("%s (%d/%d pairs)" % (label, wins, pairs))
            elif -gain > spread and 10 * losses >= 9 * pairs:
                worse.append("%s (%d/%d pairs)" % (label, losses, pairs))
            elif abs(change) > m["bound"]:
                unresolved.append("%s (%d wins, %d losses)"
                                  % (label, wins, losses))
    parts = ["BENCH_%s vs parent %s, same session (%d alternating pairs)"
             % (point["pr"], point.get("parent_commit", "?"), pairs)]
    parts.append("better: " + (", ".join(better) or "none"))
    parts.append("worse: " + (", ".join(worse) or "none"))
    parts.append("unresolved: " + (", ".join(unresolved) or "none"))
    parts.append("all other end-to-end metrics show no change")
    return "; ".join(parts) + "."


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True,
                        help="number of the point (BENCH_<pr>.json)")
    parser.add_argument("--seeds", type=int, default=5,
                        help="untraced runs per workload (seeds 1..N)")
    parser.add_argument("--checkout", default=ROOT,
                        help="checkout to run the benchmark in")
    parser.add_argument("--workloads", default=None,
                        help="comma-separated workloads to run (default: "
                        "every workload in BENCHMARK.json)")
    parser.add_argument("--parent", default=None,
                        help="checkout of the parent commit: run it "
                        "interleaved with the change and judge the pairs")
    args = parser.parse_args()
    if args.seeds < 1:
        fail("--seeds must be at least 1")

    spec = load_spec()
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        wanted = args.workloads.split(",")
        unknown = sorted(set(wanted) - set(names))
        if unknown:
            fail("unknown workload(s): " + ", ".join(unknown))
        names = [n for n in names if n in wanted]
    seeds = list(range(1, args.seeds + 1))
    checkout = os.path.abspath(args.checkout)
    parent = os.path.abspath(args.parent) if args.parent else None

    point = {"pr": args.pr, "commit": git_commit(checkout), "host": host(),
             "command": spec["command"], "seconds": seconds, "seeds": seeds,
             "workloads": {}}
    if parent is not None:
        point["parent_commit"] = git_commit(parent)
    for name in names:
        print("bench_point.py: %s (%d seeds%s + 1 traced)"
              % (name, len(seeds), " x parent/change" if parent else ""),
              file=sys.stderr)
        point["workloads"][name] = measure(spec, checkout, name, seeds,
                                           seconds, parent)

    os.makedirs(TRAJECTORY, exist_ok=True)
    path = os.path.join(TRAJECTORY, "BENCH_%d.json" % args.pr)
    with open(path, "w") as f:
        json.dump(point, f, indent=1, sort_keys=True)
        f.write("\n")
    print("wrote " + os.path.relpath(path, ROOT))

    if parent is not None:
        print(compare_pairs(spec, point))
        return
    old = newest_point(args.pr)
    if old is None:
        print("no earlier point to compare against")
    else:
        print(compare(spec, old, point))


if __name__ == "__main__":
    main()

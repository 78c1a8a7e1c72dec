#!/usr/bin/env python3
"""Checks bench_point.py's two comparisons on synthetic points.

    python3 tools/test_bench_point.py

A cross-session comparison must see through a drift of the host's memory
ceiling: two points whose every throughput and time moved with a 25%
lower host.ddr_max_gbps, and nothing else, report nothing, while a real
40% throughput gain on top of the same drift reports "better".  The
same-session pair comparison must report a change that wins every pair
and stay silent on pairs that only differ by noise.
"""
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_point  # noqa: E402

SEEDS = [1, 2, 3, 4, 5]
# Per-seed noise of about +-2%, the same for both points.
NOISE = [1.00, 1.02, 0.98, 1.01, 0.99]
BASE = {"throughput_mb_s": 600.0, "latency_p50_s": 0.9,
        "latency_p90_s": 1.1, "peak_rss_mb": 1100.0, "setup_s": 0.5}


def entry(spec, gbps, speed, noise=NOISE):
    """A workload entry on a host of `gbps` ceiling, where the code runs
    `speed` times as fast per GB/s as the BASE point at 60 GB/s."""
    scale = gbps / 60.0 * speed
    end_to_end = {}
    for m in spec["end_to_end"]:
        base = BASE[m["name"]]
        if m["unit"] == "MiB/s":
            value = base * scale
        elif m["unit"] == "s":
            value = base / scale
        else:
            value = base
        samples = [value * n for n in noise]
        q1, med, q3 = bench_point.quartiles(samples)
        end_to_end[m["name"]] = {"unit": m["unit"], "median": med, "q1": q1,
                                 "q3": q3, "samples": samples}
    return {"attempted": 50, "failed": 0, "end_to_end": end_to_end,
            "traced_seed": 1, "per_layer": {"host.ddr_max_gbps": gbps}}


def point(spec, pr, gbps, speed):
    return {"pr": pr, "seeds": SEEDS, "workloads": {
        w["name"]: entry(spec, gbps, speed) for w in spec["workloads"]}}


class CrossSession(unittest.TestCase):
    def setUp(self):
        self.spec = bench_point.load_spec()

    def test_ceiling_shift_alone_reports_nothing(self):
        line = bench_point.compare(self.spec, point(self.spec, 1, 60.0, 1.0),
                                   point(self.spec, 2, 45.0, 1.0))
        self.assertIn("cross-session", line)
        self.assertIn("better: none", line)
        self.assertIn("worse: none", line)
        self.assertIn("unresolved: none", line)
        # The raw throughput is printed beside the normalised one.
        self.assertIn("flat_sort throughput_mb_s 600 -> 450", line)

    def test_real_gain_under_a_ceiling_shift_is_better(self):
        line = bench_point.compare(self.spec, point(self.spec, 1, 60.0, 1.0),
                                   point(self.spec, 2, 45.0, 1.4))
        self.assertIn("better: flat_sort throughput_mb_s +40%", line)
        self.assertIn("worse: none", line)


class SameSession(unittest.TestCase):
    def setUp(self):
        self.spec = bench_point.load_spec()

    def paired(self, speed, change_noise):
        result = {"pr": 2, "parent_commit": "abc", "seeds": SEEDS,
                  "workloads": {}}
        for w in self.spec["workloads"]:
            cur = entry(self.spec, 50.0, speed, change_noise)
            cur["parent"] = entry(self.spec, 50.0, 1.0)
            result["workloads"][w["name"]] = cur
        return result

    def test_noise_alone_reports_nothing(self):
        line = bench_point.compare_pairs(
            self.spec, self.paired(1.0, list(reversed(NOISE))))
        self.assertIn("same session (5 alternating pairs)", line)
        self.assertIn("better: none", line)
        self.assertIn("worse: none", line)
        self.assertIn("unresolved: none", line)

    def test_a_change_that_wins_every_pair_is_better(self):
        line = bench_point.compare_pairs(self.spec, self.paired(1.3, NOISE))
        self.assertIn("better: flat_sort throughput_mb_s +30.0% (5/5 pairs)",
                      line)
        self.assertIn("worse: none", line)


if __name__ == "__main__":
    unittest.main()

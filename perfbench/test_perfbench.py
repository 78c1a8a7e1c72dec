#!/usr/bin/env python3
"""Tests of the host benchmark itself, on tiny inputs.

    python3 perfbench/test_perfbench.py      (from the repository root)

Each case runs perfbench/run.py, which builds the benchmark first.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("flat_sort", "service_sort", "pipeline_stream", "kv_zipf")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "0.2", "--trace",
           str(trace), "--small", *extra]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


class ShortMode(unittest.TestCase):
    def test_every_workload_is_listed(self):
        self.assertEqual([w["name"] for w in spec()["workloads"]],
                         list(WORKLOADS))

    def test_every_metric_is_emitted_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec()[key]}
            for w in WORKLOADS:
                with self.subTest(workload=w, trace=trace):
                    r = run(w, trace)
                    self.assertTrue(r["correct"])
                    self.assertEqual(r["failed"], 0)
                    self.assertGreaterEqual(r["attempted"], 1)
                    got = {k: v["unit"] for k, v in r["metrics"].items()}
                    self.assertEqual(got, want)
                    if trace == 0:
                        for name, v in r["metrics"].items():
                            self.assertGreater(v["value"], 0, name)

    def test_corrupted_output_counts_as_failed(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                r = run(w, 0, "--corrupt")
                self.assertFalse(r["correct"])
                self.assertGreater(r["failed"] / r["attempted"], 0)

    def test_self_times_and_residual_add_up_to_wall(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                m = {k: v["value"] for k, v in run(w, 1)["metrics"].items()}
                total = sum(v for k, v in m.items() if k.endswith(".self_s"))
                total += m["residual.unattributed_s"]
                self.assertGreater(m["trace.wall_s"], 0)
                self.assertAlmostEqual(total, m["trace.wall_s"],
                                       delta=1e-9 * m["trace.wall_s"])


if __name__ == "__main__":
    unittest.main()

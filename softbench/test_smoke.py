"""Smoke test of the benchmark.

Runs every workload at a tiny path budget in both trace modes and checks
that each metric BENCHMARK.json names is emitted with its unit and recorded
with its direction; then checks that the benchmark refuses to run, printing
no result, from a directory that holds only BENCHMARK.json and the
benchmark's own files.

    python3 softbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)


def run(cwd, *args):
    return subprocess.run(BENCH["command"] + list(args), cwd=cwd, capture_output=True, text=True,
                          timeout=900)


class Smoke(unittest.TestCase):
    def test_every_metric_is_emitted(self):
        for w in BENCH["workloads"]:
            for trace, wanted in ((0, BENCH["end_to_end"]), (1, BENCH["per_layer"])):
                with self.subTest(workload=w["name"], trace=trace):
                    r = run(ROOT, "--workload", w["name"], "--seed", "1", "--seconds", "1",
                            "--trace", str(trace), "--smoke")
                    self.assertEqual(r.returncode, 0, r.stderr)
                    result = json.loads(r.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], r.stdout)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
                    record = os.path.join(ROOT, ".softbench", f"{w['name']}-seed1-trace{trace}.json")
                    with open(record) as f:
                        recorded = json.load(f)["metrics"]
                    for m in wanted:
                        got = result["metrics"][m["name"]]
                        self.assertIsInstance(got["value"], (int, float), m["name"])
                        self.assertEqual(got["unit"], m["unit"], m["name"])
                        self.assertEqual(recorded[m["name"]]["better"], m["better"], m["name"])

    def test_refuses_without_sources(self):
        bare = os.path.join(ROOT, ".softbench", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            for p in BENCH["paths"]:
                shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p),
                                ignore=shutil.ignore_patterns("__pycache__"))
            r = run(bare, "--workload", BENCH["workloads"][0]["name"], "--seed", "1",
                    "--seconds", "1", "--trace", "0")
            self.assertNotEqual(r.returncode, 0)
            self.assertNotIn('"metrics"', r.stdout)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()

"""Tests of the benchmark itself: metric naming, the replay against the
fresh-process reference, short end-to-end runs of every workload, and the
store's handling of a corrupted object.

    python3 -m unittest discover -s perfbench/tests -v

They build the benchmark crate (release) on first use.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
_BENCH = None


def bench():
    global _BENCH
    if _BENCH is None:
        _BENCH = run.Bench(run.build())
    return _BENCH


class MetricNames(unittest.TestCase):
    def test_names_are_valid_unique_and_have_units(self):
        names = list(run.END_TO_END) + list(run.PER_LAYER)
        self.assertEqual(len(names), len(set(names)))
        for name, unit in {**run.END_TO_END, **run.PER_LAYER}.items():
            self.assertRegex(name, NAME)
            self.assertRegex(unit, UNIT)
        self.assertEqual(run.END_TO_END["setup_s"], "s")

    def test_benchmark_json_matches_the_runner(self):
        with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        for m in spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)


class ReplayEqualsReference(unittest.TestCase):
    def check_trace(self, workload):
        check = run.Check()
        metrics = run.run_trace(bench(), workload, 3, 4, 4, check)
        self.assertGreater(check.requested, 0)
        self.assertEqual(check.mismatched, 0, "the replay must equal the reference")
        self.assertTrue(check.correct())
        self.assertEqual(set(metrics), set(run.PER_LAYER))

    def test_tuh_grid(self):
        self.check_trace("tuh_grid")

    def test_ic_scaling(self):
        self.check_trace("ic_scaling")

    def test_serve_warm(self):
        self.check_trace("serve_warm")


class ShortMode(unittest.TestCase):
    def test_every_workload_runs_end_to_end(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                out = subprocess.run(
                    [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
                     "--seed", "2", "--seconds", "1", "--trace", "0", "--short"],
                    capture_output=True, text=True, check=True)
                result = json.loads(out.stdout.strip().splitlines()[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                                 run.END_TO_END)
                self.assertTrue(all(v["value"] > 0 for v in result["metrics"].values()))


class CorruptedStoreObject(unittest.TestCase):
    def test_is_quarantined_and_resimulated_never_a_hit(self):
        b = bench()
        stored = b.requests("tuh_grid", 0)
        seeded = run.seeded_store(b, stored)
        with tempfile.TemporaryDirectory(dir=b.work) as tmp:
            store = os.path.join(tmp, "store")
            shutil.copytree(seeded, store)
            first = run.session(b, store, [[stored[0]]])["rows"][0][0]
            self.assertEqual(first["source"], "store")
            with open(os.path.join(store, "objects", first["key"] + ".json"), "w") as f:
                f.write('{"schema_version": 1, "torn')

            out = run.session(b, store, [[stored[0]]])
            row = out["rows"][0][0]
            self.assertEqual(row["source"], "sim")
            self.assertEqual(run.row_fields(row), run.row_fields(first))
            self.assertIn("0 hits / 1 misses (1 quarantined)", out["summary"])

            # The traced run's store replay counts it the same way.
            shutil.rmtree(store)
            shutil.copytree(seeded, store)
            with open(os.path.join(store, "objects", first["key"] + ".json"), "w") as f:
                f.write("not json")
            mix = os.path.join(tmp, "mix.ndjson")
            with open(mix, "w") as f:
                f.write(stored[0] + "\n\n")
            reqs = os.path.join(tmp, "requests.ndjson")
            with open(reqs, "w") as f:
                f.write(stored[0] + "\n")
            metrics = b.call_json("trace", "--workload", "serve_warm", "--mix", mix,
                                  "--requests", reqs, "--store", store)["metrics"]
            self.assertEqual(metrics["store.quarantined"], 1)
            self.assertEqual(metrics["store.hit_rate"], 0)


if __name__ == "__main__":
    unittest.main()

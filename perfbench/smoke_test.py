#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at a tiny size.

Checks that each run passes its output checks and emits exactly the
metrics BENCHMARK.json names, that the exact work counters repeat across
two runs and across thread counts, that BENCHMARK.json is what
run.py --manifest prints, and that the benchmark fails cleanly, printing
no result, where the coredis sources are missing.

  python3 perfbench/smoke_test.py
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

EXACT = ["core.col_depth_mean", "core.col_depth_max", "core.count.events",
         "core.count.heuristic_calls", "core.count.commits",
         "core.count.redistributions", "exp.jsonl_bytes"]


def bench(workload, trace, threads=0, cwd=ROOT):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", "7", "--seconds", "1", "--trace", str(trace),
               "--tiny"]
    if threads:
        command += ["--threads", str(threads)]
    done = subprocess.run(command, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    return done


def result(done):
    assert done.returncode == 0, done.stderr[-2000:]
    out = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    return out["metrics"]


class Smoke(unittest.TestCase):
    def test_manifest_is_committed(self):
        committed = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(committed, run.manifest())

    def test_end_to_end_metrics_are_emitted(self):
        for workload, _ in run.WORKLOADS:
            with self.subTest(workload=workload):
                metrics = result(bench(workload, 0))
                self.assertEqual(
                    {n: m["unit"] for n, m in metrics.items()},
                    {n: u for n, u, *_ in run.END_TO_END})
                self.assertTrue(all(m["value"] > 0 for m in metrics.values()))

    def test_per_layer_metrics_and_exact_counters(self):
        for workload, _ in run.WORKLOADS:
            with self.subTest(workload=workload):
                runs = [result(bench(workload, 1, threads))
                        for threads in (2, 2, 1)]
                self.assertEqual({n: m["unit"] for n, m in runs[0].items()},
                                 dict(run.PER_LAYER))
                for name in EXACT:
                    values = [r[name]["value"] for r in runs]
                    self.assertEqual(len(set(values)), 1, (name, values))

    def test_fails_without_sources(self):
        bare = ROOT / ".bench_out" / "smoke-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = bench("grid_small", 0, cwd=bare)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()

"""Smoke test of the benchmark: each workload once at its smallest size.

Run from the repository root:

    python3 perfbench/test_smoke.py

Checks that every metric BENCHMARK.json names is printed with its unit, in
both the untraced and the traced run, and that the benchmark refuses to run
without the package source next to it.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True  # keep the benchmark's directory free of caches

import run  # noqa: E402
import workloads  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def last_line(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def test_every_metric_is_emitted_with_its_unit(self):
        spec = run.load_benchmark_spec()
        for name in workloads.WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    buf = io.StringIO()
                    with contextlib.redirect_stdout(buf):
                        rc = run.run(["--workload", name, "--seed", "0", "--seconds", "0",
                                      "--trace", str(trace), "--smoke"])
                    self.assertEqual(rc, 0)
                    result = last_line(buf.getvalue())
                    self.assertEqual(set(result), RESULT_KEYS)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in spec[key]}
                    got = result["metrics"]
                    self.assertEqual(set(got), set(want))
                    for metric, unit in want.items():
                        self.assertEqual(got[metric]["unit"], unit, metric)
                        value = got[metric]["value"]
                        self.assertIsInstance(value, (int, float), metric)
                        self.assertNotIsInstance(value, bool, metric)

    def test_refuses_to_run_without_the_package(self):
        os.makedirs(run.OUT_DIR, exist_ok=True)
        bare = tempfile.mkdtemp(prefix="bare-", dir=run.OUT_DIR)
        try:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(run.HERE, os.path.join(bare, "perfbench"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "exact_ladder",
                 "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()

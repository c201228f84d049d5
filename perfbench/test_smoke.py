"""Tests of the benchmark command itself.

  python3 perfbench/test_smoke.py

The smoke test runs every workload at tiny sizes in both modes; run.py
--smoke fails unless each metric BENCHMARK.json names is printed with its
unit. The second test checks that without the simulator's sources the
command fails fast and prints no result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(root, *args):
    return subprocess.run([sys.executable, os.path.join(root, "perfbench", "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=900)


class BenchmarkTest(unittest.TestCase):
    def test_smoke_prints_every_metric(self):
        done = run(ROOT, "--smoke")
        self.assertEqual(done.returncode, 0, done.stderr[-3000:])
        result = json.loads(done.stdout.splitlines()[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)

    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory() as root:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), root)
            shutil.copytree(HERE, os.path.join(root, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = run(root, "--workload", "tpch", "--seed", "1", "--seconds", "1",
                       "--trace", "0")
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()

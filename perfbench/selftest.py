"""Tests of the benchmark harness itself.

Run from the root of a checkout (about two minutes on two cores):

    python3 perfbench/selftest.py

The file is deliberately not named ``test_*.py``: the repository's own suite
collects those, and these tests run the benchmark, which takes minutes.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spans import run_profile  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


class RepeatExactly(unittest.TestCase):
    """Computed counts and value errors are functions of the seed alone."""

    def test_two_traced_runs_agree(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                results = []
                for _ in range(2):
                    proc = bench("--workload", name, "--seed", "11",
                                 "--seconds", "1", "--trace", "1")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    results.append(json.loads(proc.stdout.splitlines()[-1]))
                first, second = results
                self.assertTrue(first["correct"] and second["correct"])
                for metric in sorted(run.EXACT):
                    self.assertEqual(first["metrics"][metric],
                                     second["metrics"][metric], metric)


class Contract(unittest.TestCase):
    def test_benchmark_json_names_what_the_harness_reports(self):
        doc = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({w["name"]: w["why"] for w in doc["workloads"]},
                         {w.name: w.why for w in WORKLOADS.values()})
        for key, table in (("end_to_end", run.END_TO_END),
                           ("per_layer", run.PER_LAYER)):
            self.assertEqual([(m["name"], m["unit"]) for m in doc[key]],
                             [(name, unit) for name, unit, _ in table])

    def test_self_time_subtracts_direct_children(self):
        spans = [["cli.main", 0.0, 10.0, -1, 0],
                 ["value.a", 1.0, 5.0, 0, 0],
                 ["value.b", 2.0, 3.0, 1, 0],
                 ["ensemble.c", 6.0, 8.0, 0, 0],
                 ["value.a", 0.0, 99.0, -1, 1]]
        total, calls, layer_self = run_profile(spans, 0)
        self.assertEqual(dict(layer_self), {"cli": 4.0, "value": 4.0, "ensemble": 2.0})
        self.assertEqual(total["value.a"], 4.0)
        self.assertEqual(calls["value.a"], 1)

    def test_without_the_program_it_fails_and_prints_no_result(self):
        bare = ROOT / ".bench_work" / "bare"
        if bare.exists():
            shutil.rmtree(bare)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "solve-grid", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=bare)
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()

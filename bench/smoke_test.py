"""Smoke test of the benchmark itself, at a tiny size (about ten seconds).

    python3 bench/smoke_test.py

Checks that every metric named in BENCHMARK.json is emitted with its
unit, that a deliberately corrupted output counts as a failed item, and
that the benchmark refuses to run when the package sources are missing.
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def tiny_passes(name: str, seed: int = 3):
    """A warm-up pass and one measured pass of three cheap items each."""
    ss, passes = workloads.setup(ROOT, name, seed, 2)
    if name == "cli-session":
        cheap = workloads.cli_commands()[:3]
        return ss, [cheap, cheap]
    return ss, [sorted(p, key=lambda m: m.num_generators)[:3] for p in passes[:2]]


def units(metrics: dict) -> dict:
    return {name: unit for name, (_value, unit) in metrics.items()}


class MetricsTest(unittest.TestCase):
    def test_every_named_metric_is_emitted_with_its_unit(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(workloads.WORKLOADS))
        for name, wl in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                ss, passes = tiny_passes(name)
                m = run.measure(wl, ss, passes, trace=False, probe=lambda: 0.05)
                self.assertEqual(m.tally.failed, 0, m.tally.first_error)
                self.assertEqual(units(run.end_to_end_metrics(m)), END_TO_END)
                m = run.measure(wl, ss, passes, trace=True)
                self.assertEqual(m.tally.failed, 0, m.tally.first_error)
                self.assertEqual(units(run.per_layer_metrics(m)), PER_LAYER)

    def test_command_prints_result_as_last_line(self):
        for trace, expected in (("0", END_TO_END), ("1", PER_LAYER)):
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "corpus-oracle",
                 "--seed", "5", "--seconds", "0", "--trace", trace],
                cwd=ROOT, capture_output=True, text=True, timeout=180,
            )
            self.assertEqual(proc.returncode, 0, proc.stderr)
            result = json.loads(proc.stdout.strip().split("\n")[-1])
            self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
            self.assertTrue(result["correct"])
            self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, expected)


class CorruptionTest(unittest.TestCase):
    def test_betti_number_off_by_one_is_a_failed_item(self):
        wl = workloads.WORKLOADS["corpus-verify"]
        corrupted = []

        def job(ss, ideal):
            res, verdicts = wl.job(ss, ideal)
            if not corrupted:  # beta_0 becomes 0 instead of 1
                corrupted.append(ideal)
                res.modules[0] = dataclasses.replace(res.modules[0], generators=())
            return res, verdicts

        ss, passes = tiny_passes("corpus-verify")
        m = run.measure(dataclasses.replace(wl, job=job), ss, passes, trace=False)
        self.assertEqual(len(corrupted), 1)
        self.assertEqual(m.tally.failed, 1)
        self.assertIn("Betti totals", m.tally.first_error)

    def test_wrong_cli_output_is_a_failed_item(self):
        wl = workloads.WORKLOADS["cli-session"]

        def job(ss, command):
            code, out, err = wl.job(ss, command)
            return code, out.replace("21", "22"), err

        ss, passes = tiny_passes("cli-session")
        m = run.measure(dataclasses.replace(wl, job=job), ss, passes, trace=False)
        self.assertGreater(m.tally.failed, 0)
        self.assertLess(m.tally.failed, m.tally.attempted)


class MissingSourcesTest(unittest.TestCase):
    def test_refuses_to_run_without_the_package(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH_DIR, Path(tmp) / BENCH_DIR.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "corpus-verify",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")
        self.assertIn("stairstep", proc.stderr)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Self-test of the benchmark: metric names, replay determinism, and
the reference-checksum gate.

    python3 perfbench/tests/test_perfbench.py

Builds the benchmark if needed (see perfbench/run.py) and runs single
passes of the workloads; takes about half a minute once built.
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402  (the benchmark runner under test)

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def raw_pass(workload, seed, trace):
    """Runs one pass of fdipbench; returns its raw JSON."""
    binary, work_dir = run.build()
    work_dir.mkdir(parents=True, exist_ok=True)
    out = subprocess.run(
        [str(binary), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--work-dir",
         str(work_dir)],
        stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout)


class MetricNames(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())

    def test_names_and_units_match_run_py(self):
        for key, units in (("end_to_end", run.END_TO_END_UNITS),
                           ("per_layer", run.PER_LAYER_UNITS)):
            declared = {m["name"]: m["unit"] for m in self.spec[key]}
            self.assertEqual(declared, units, key)
        extra = {**run.PREFETCH_LAYER_UNITS, **run.CAMPAIGN_LAYER_UNITS}
        self.assertFalse(set(extra) & set(run.PER_LAYER_UNITS))
        for units in (run.END_TO_END_UNITS, run.PER_LAYER_UNITS, extra):
            for name, unit in units.items():
                self.assertRegex(name, NAME_RE)
                self.assertRegex(unit, UNIT_RE)
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual(set(run.HELD_OUT_SEEDS), set(run.WORKLOADS))

    def test_result_prints_exactly_the_declared_metrics(self):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
             "fdp_server", "--seconds", "0", "--trace", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            cwd=run.ROOT, check=True)
        lines = proc.stdout.strip().splitlines()
        res = json.loads(lines[-1])
        self.assertTrue(res["correct"])
        self.assertEqual(set(res["metrics"]), set(run.PER_LAYER_UNITS))
        for name, m in res["metrics"].items():
            self.assertIsInstance(m["value"], float)
            self.assertNotEqual(m["value"], 0.0, name)
        # fdp_server has no L1I prefetcher and one worker: no
        # workload-specific metrics.
        self.assertFalse(any(l.startswith('{"workload_layer"')
                             for l in lines))


class ReplayDeterminism(unittest.TestCase):
    def replay_counts(self):
        raw = raw_pass("fdp_eip128_server", 7, 1)
        replay = raw["passes"][0]["replay"]
        counts = {k: v for k, v in replay.items() if not k.endswith("_ns")}
        metrics, extra = run.per_layer(raw)
        ratios = {k: v for k, v in {**metrics, **extra}.items()
                  if k in ("bpu.btb_hit_rate", "bpu.cond_mispredict_rate",
                           "cache.l1i_hit_rate", "prefetch.issued_per_kinst",
                           "prefetch.useful_frac")}
        return counts, ratios

    def test_two_passes_agree(self):
        first = self.replay_counts()
        second = self.replay_counts()
        self.assertEqual(first, second)
        counts, ratios = first
        self.assertEqual(len(ratios), 5)
        self.assertGreater(counts["branches"], 0)
        self.assertGreater(counts["prefetches_issued"], 0)


class ReferenceGate(unittest.TestCase):
    def test_wrong_reference_counts_as_failed(self):
        raw = raw_pass("fdp_server", run.DEFAULT_SEED, 0)
        refs = json.loads((BENCH_DIR / "references.json").read_text())
        good = refs["fdp_server"]
        self.assertEqual(run.check_runs(raw, good, 0)[:2], (3, 0))
        wrong = dict(good)
        wrong[next(iter(wrong))] = "0123456789abcdef"
        attempted, failed, problems = run.check_runs(raw, wrong, 0)
        self.assertEqual((attempted, failed), (3, 1))
        self.assertIn("reference", problems[0])


if __name__ == "__main__":
    unittest.main()

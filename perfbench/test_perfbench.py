#!/usr/bin/env python3
"""Tests of the benchmark's own tools.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The comparer tests need nothing built. The pin test runs the driver binary
that perfbench/run.py builds under .bench_build/ and is skipped until it
exists.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile
import unittest

BENCH_DIR = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import compare  # noqa: E402

DRIVER = BENCH_DIR.parent / ".bench_build" / "gdp_perfbench"
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def verdict(base, new, higher=False, bound=0.1):
    pairs = list(zip(base, new))
    sign = 1.0 if higher else -1.0
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    losses = sum(1 for b, n in pairs if sign * (n - b) < 0)
    return compare.verdict(base, new, higher, bound, wins, losses, len(pairs))


class PercentileRule(unittest.TestCase):
    def test_quartiles_are_statistics_quantiles(self):
        values = [3.1, 0.5, 2.2, 9.0, 4.4, 4.5, 1.0, 7.7, 6.1, 5.0]
        q1, med, q3 = compare.quartiles(values)
        self.assertEqual([q1, med, q3], statistics.quantiles(values, n=4))
        self.assertEqual(med, statistics.median(values))

    def test_single_value_has_no_spread(self):
        self.assertEqual(compare.quartiles([2.5]), (2.5, 2.5, 2.5))
        self.assertEqual(compare.spread([2.5]), 0.0)

    def test_highest_percentile_keeps_ten_samples_beyond_it(self):
        self.assertIsNone(compare.highest_percentile(10))
        self.assertIsNone(compare.highest_percentile(19))
        self.assertEqual(compare.highest_percentile(20), 50.0)
        self.assertEqual(compare.highest_percentile(40), 75.0)
        self.assertEqual(compare.highest_percentile(100), 90.0)
        self.assertEqual(compare.highest_percentile(200), 95.0)
        self.assertEqual(compare.highest_percentile(1000), 99.0)
        self.assertEqual(compare.highest_percentile(10000), 99.9)

    def test_nearest_rank_percentile(self):
        values = list(range(1, 101))
        self.assertEqual(compare.percentile(values, 90.0), 90)
        self.assertEqual(compare.percentile(values, 50.0), 50)


class Verdicts(unittest.TestCase):
    BASE = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.03, 9.97, 10.0]

    def test_clear_gain_is_improved(self):
        new = [v * 0.8 for v in self.BASE]
        self.assertEqual(verdict(self.BASE, new), "improved")

    def test_higher_is_better_direction(self):
        new = [v * 1.2 for v in self.BASE]
        self.assertEqual(verdict(self.BASE, new, higher=True), "improved")
        self.assertEqual(verdict(self.BASE, new, higher=False), "worse")

    def test_small_noise_is_unchanged(self):
        new = list(reversed(self.BASE))
        self.assertEqual(verdict(self.BASE, new), "unchanged")

    def test_regression_beyond_bound_is_worse(self):
        new = [v * 1.2 for v in self.BASE]
        self.assertEqual(verdict(self.BASE, new), "worse")

    def test_spread_wider_than_bound_is_unresolved(self):
        base = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
        new = [v * 1.05 for v in reversed(base)]
        self.assertGreater(compare.spread(base), 0.1)
        self.assertEqual(verdict(base, new), "unresolved")

    def test_unresolved_does_not_hide_a_gain_on_every_run(self):
        base = [10.0, 12.0, 14.0, 11.0, 13.0, 10.5, 12.5, 13.5, 11.5, 14.5]
        new = [v - 6.0 for v in base]  # every new run beats every base run
        self.assertGreater(compare.spread(base), 0.1)
        self.assertEqual(verdict(base, new), "improved")

    def test_wide_spread_without_gain_on_every_run_never_reads_unchanged(self):
        base = [10.0, 12.0, 14.0, 11.0, 13.0, 10.5, 12.5, 13.5, 11.5, 14.5]
        self.assertEqual(verdict(base, list(base)), "unresolved")


class MetricNames(unittest.TestCase):
    def test_charset(self):
        for good in ("setup_s", "mdp.explore.states_per_s_t1", "a", "9x", "a-b.c_d",
                     "x" * 64):
            self.assertTrue(compare.valid_name(good), good)
        for bad in ("", ".states", "_x", "-x", "a b", "a/b", "é", "x" * 65, "a\n"):
            self.assertFalse(compare.valid_name(bad), bad)

    def test_declared_metrics_obey_the_charset(self):
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertTrue(compare.valid_name(m["name"]), m["name"])

    def test_load_rejects_a_bad_name(self):
        with tempfile.TemporaryDirectory() as d:
            path = pathlib.Path(d) / "runs.jsonl"
            path.write_text(json.dumps({"workload": "w", "seed": 1, "metrics": {
                "bad name": {"value": 1.0, "unit": "s"}}}) + "\n")
            with self.assertRaises(ValueError):
                compare.load(path)

    def test_compare_end_to_end(self):
        runs = [{"workload": "w", "seed": s, "failed": 0,
                 "metrics": {"setup_s": {"value": 1.0 + s / 1000, "unit": "s"}}}
                for s in range(10)]
        rows = compare.compare(runs, runs, SPEC)
        self.assertEqual(len(rows), 1)
        self.assertEqual(rows[0]["verdict"], "unchanged")
        self.assertEqual(rows[0]["wins"], 0)
        self.assertEqual(rows[0]["pairs"], 10)

    def test_pairs_keep_trace_modes_apart(self):
        def run(seed, trace, value):
            name = "mdp.quant.s" if trace else "time_to_verdict_s"
            return {"workload": "w", "seed": seed, "trace": trace, "failed": 0,
                    "metrics": {name: {"value": value, "unit": "s"}}}
        base = [run(s, t, 10.0 + s) for s in range(10) for t in (0, 1)]
        new = [run(s, t, 9.0 + s) for s in reversed(range(10)) for t in (1, 0)]
        pairs = compare.pair(base, new)
        self.assertEqual(len(pairs), 20)
        for b, n in pairs:
            self.assertEqual(compare.run_key(b), compare.run_key(n))
        rows = {r["metric"]: r for r in compare.compare(base, new, SPEC)}
        for name in ("mdp.quant.s", "time_to_verdict_s"):
            self.assertEqual((rows[name]["wins"], rows[name]["pairs"]), (10, 10), name)


@unittest.skipUnless(DRIVER.exists(), "driver not built; run perfbench/run.py once")
class PinnedValues(unittest.TestCase):
    def run_campaign(self, pins_text: str) -> tuple[int, dict]:
        with tempfile.TemporaryDirectory(dir=DRIVER.parent) as d:
            pins = pathlib.Path(d) / "pins.txt"
            pins.write_text(pins_text)
            tmp = pathlib.Path(d) / "run"
            done = subprocess.run(
                [str(DRIVER), "--workload", "campaign", "--seed", "1", "--seconds", "1",
                 "--trace", "0", "--tmpdir", str(tmp), "--pins", str(pins)],
                stdout=subprocess.PIPE, text=True, timeout=170, check=False)
            self.assertFalse(tmp.exists() and any(tmp.iterdir()), "driver left files behind")
        return done.returncode, json.loads(done.stdout.strip().splitlines()[-1])

    def test_wrong_pin_fails_the_driver(self):
        real = (BENCH_DIR / "pins.txt").read_text()
        self.assertIn("campaign.seed1.csv_fnv1a", real)
        wrong = "\n".join(
            "campaign.seed1.csv_fnv1a = 1" if line.startswith("campaign.seed1.csv_fnv1a")
            else line for line in real.splitlines())
        code, result = self.run_campaign(wrong)
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)

    def test_real_pins_pass(self):
        code, result = self.run_campaign((BENCH_DIR / "pins.txt").read_text())
        self.assertEqual(code, 0, result)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)


if __name__ == "__main__":
    unittest.main()

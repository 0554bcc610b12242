"""Tests for the benchmark's own code: statistics and verdicts, metric-name
rules, the result schema and BENCHMARK.json itself.

Run: python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import copy
import json
import os
import statistics
import unittest

import benchlib

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_checked_in_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def result_for(spec, trace, value=1.5):
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    return {
        "correct": True,
        "attempted": 10,
        "failed": 0,
        "metrics": {m["name"]: {"value": value, "unit": m["unit"]} for m in metrics},
    }


class StatisticsTest(unittest.TestCase):
    def test_quartiles_match_statistics_quantiles(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        q1, med, q3 = benchlib.quartiles(values)
        self.assertEqual([q1, med, q3], statistics.quantiles(values, n=4))
        self.assertEqual(med, statistics.median(values))

    def test_quartiles_of_one_value(self):
        self.assertEqual(benchlib.quartiles([4.0]), (4.0, 4.0, 4.0))

    def test_spread_is_iqr_over_median(self):
        values = [90.0, 95.0, 100.0, 105.0, 110.0]
        q1, med, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(benchlib.spread(values), (q3 - q1) / med)

    def test_spread_of_constant_and_zero_median(self):
        self.assertEqual(benchlib.spread([100.0] * 10), 0.0)
        self.assertEqual(benchlib.spread([0.0] * 10), 0.0)
        self.assertEqual(benchlib.spread([-1.0, 0.0, 0.0, 1.0]), float("inf"))


class VerdictTest(unittest.TestCase):
    BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]

    def test_pair_wins_count_ties_for_neither(self):
        pairs = [(1.0, 2.0), (2.0, 1.0), (3.0, 3.0), (1.0, 5.0)]
        self.assertEqual(benchlib.pair_wins(pairs, "higher"), (2, 1, 1))
        self.assertEqual(benchlib.pair_wins(pairs, "lower"), (1, 2, 1))

    def test_clear_gain_is_better(self):
        change = [v * 1.2 for v in self.BASE]
        pairs = list(zip(self.BASE, change))
        self.assertEqual(benchlib.verdict(self.BASE, change, pairs, "higher", 0.1), "better")

    def test_gain_needs_nine_tenths_of_pairs(self):
        change = [v * 1.2 for v in self.BASE]
        change[0] = self.BASE[0] * 0.5  # One lost pair of ten: still 9/10.
        pairs = list(zip(self.BASE, change))
        self.assertEqual(benchlib.verdict(self.BASE, change, pairs, "higher", 0.1), "better")
        change[1] = self.BASE[1] * 0.5  # Two lost: 8/10.
        pairs = list(zip(self.BASE, change))
        self.assertNotEqual(benchlib.verdict(self.BASE, change, pairs, "higher", 0.1), "better")

    def test_gain_within_base_spread_is_not_better(self):
        base = [90.0, 110.0, 95.0, 105.0, 100.0, 92.0, 108.0, 97.0, 103.0, 100.0]
        change = [v + 1.0 for v in base]  # Wins every pair by less than the IQR.
        pairs = list(zip(base, change))
        self.assertEqual(benchlib.verdict(base, change, pairs, "higher", 0.25), "same")

    def test_regression_beyond_bound_is_worse(self):
        change = [v * 1.2 for v in self.BASE]
        pairs = list(zip(self.BASE, change))
        self.assertEqual(benchlib.verdict(self.BASE, change, pairs, "lower", 0.1), "worse")
        self.assertEqual(benchlib.verdict(self.BASE, change, pairs, "lower", 0.25), "same")

    def test_wide_spread_is_unresolved(self):
        base = [50.0, 150.0, 60.0, 140.0, 100.0, 55.0, 145.0, 70.0, 130.0, 100.0]
        change = [v * 1.01 for v in base]
        pairs = list(zip(base, change))
        self.assertEqual(benchlib.verdict(base, change, pairs, "lower", 0.1), "unresolved")

    def test_wide_spread_resolves_when_every_change_run_is_better(self):
        base = [50.0, 150.0, 60.0, 140.0, 100.0, 55.0, 145.0, 70.0, 130.0, 100.0]
        change = [1.0 + i for i in range(10)]  # Every run below every base run.
        pairs = list(zip(base, change))
        self.assertEqual(benchlib.verdict(base, change, pairs, "lower", 0.1), "better")


class NameTest(unittest.TestCase):
    def test_valid_names(self):
        for name in ("gets_per_s", "os.page_cache.ns_per_lookup", "macro-disk", "9x", "a" * 64):
            self.assertTrue(benchlib.valid_name(name), name)

    def test_invalid_names(self):
        for name in ("", "_x", ".x", "-x", "a b", "a/b", "a%", "a" * 65, None, 3):
            self.assertFalse(benchlib.valid_name(name), name)

    def test_units(self):
        for unit in ("ms", "s", "1/s", "count", "%", "MB", "ratio"):
            self.assertTrue(benchlib.valid_unit(unit), unit)
        for unit in ("", "m s", "a" * 17, "µs"):
            self.assertFalse(benchlib.valid_unit(unit), unit)


class SpecTest(unittest.TestCase):
    def test_checked_in_spec_is_valid(self):
        spec = load_checked_in_spec()
        self.assertEqual(benchlib.check_spec(spec), [])
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         ["macro-disk", "tenant-replay-ssd"])

    def test_setup_s_has_the_largest_bound(self):
        spec = load_checked_in_spec()
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_spec_rules_catch_breakage(self):
        spec = load_checked_in_spec()
        broken = copy.deepcopy(spec)
        broken["end_to_end"][0]["bound"] = 0.3
        self.assertTrue(benchlib.check_spec(broken))
        broken = copy.deepcopy(spec)
        broken["per_layer"].append(dict(broken["per_layer"][0]))
        self.assertTrue(any("duplicate" in p for p in benchlib.check_spec(broken)))
        broken = copy.deepcopy(spec)
        broken["end_to_end"] = [m for m in broken["end_to_end"] if m["name"] != "setup_s"]
        self.assertTrue(any("setup_s" in p for p in benchlib.check_spec(broken)))


class ResultSchemaTest(unittest.TestCase):
    def setUp(self):
        self.spec = load_checked_in_spec()

    def test_well_formed_results_pass(self):
        for trace in (0, 1):
            self.assertEqual(benchlib.check_result(result_for(self.spec, trace), self.spec, trace),
                             [])

    def test_extra_or_missing_keys_fail(self):
        r = result_for(self.spec, 0)
        r["detail"] = {}
        self.assertTrue(benchlib.check_result(r, self.spec, 0))
        r = result_for(self.spec, 0)
        del r["failed"]
        self.assertTrue(benchlib.check_result(r, self.spec, 0))

    def test_metric_set_must_match_the_mode(self):
        self.assertTrue(benchlib.check_result(result_for(self.spec, 1), self.spec, 0))
        r = result_for(self.spec, 0)
        del r["metrics"]["setup_s"]
        self.assertTrue(benchlib.check_result(r, self.spec, 0))

    def test_values_units_and_counts(self):
        r = result_for(self.spec, 0)
        r["metrics"]["gets_per_s"]["unit"] = "ms"
        self.assertTrue(benchlib.check_result(r, self.spec, 0))
        r = result_for(self.spec, 0)
        r["metrics"]["gets_per_s"]["value"] = "fast"
        self.assertTrue(benchlib.check_result(r, self.spec, 0))
        r = result_for(self.spec, 0)
        r["attempted"] = 0
        self.assertTrue(benchlib.check_result(r, self.spec, 0))
        r = result_for(self.spec, 0)
        r["failed"] = 1.5
        self.assertTrue(benchlib.check_result(r, self.spec, 0))


class ProvenanceTest(unittest.TestCase):
    def test_comparable_names_differing_fields(self):
        a = {"nproc": 4, "build_type": "RelWithDebInfo", "compiler": "gcc 12", "git_rev": "x"}
        b = dict(a, git_rev="y", seed=3)
        self.assertEqual(benchlib.comparable(a, b), [])
        self.assertEqual(benchlib.comparable(a, dict(a, nproc=8)), ["nproc"])
        self.assertEqual(benchlib.comparable(a, dict(a, build_type="Debug")), ["build_type"])


class PairingTest(unittest.TestCase):
    @staticmethod
    def records(scorecards, correct=True):
        return {seed: {"result": {"correct": correct}, "scorecard": card}
                for seed, card in scorecards.items()}

    def test_identical_scorecards_pair(self):
        base = self.records({1: "gets=10 p99_ns=5", 2: "gets=10 p99_ns=6"})
        self.assertEqual(benchlib.pairing_problems(base, copy.deepcopy(base)), [])

    def test_differing_scorecard_is_refused(self):
        base = self.records({1: "gets=10 p99_ns=5", 2: "gets=10 p99_ns=6"})
        change = self.records({1: "gets=10 p99_ns=5", 2: "gets=10 p99_ns=7"})
        self.assertEqual(benchlib.pairing_problems(base, change), ["seed 2: scorecards differ"])

    def test_failed_correctness_is_refused(self):
        base = self.records({1: "gets=10"})
        change = self.records({1: "gets=10"}, correct=False)
        self.assertEqual(benchlib.pairing_problems(base, change),
                         ["seed 1: change failed its correctness check"])
        self.assertEqual(benchlib.pairing_problems(change, base),
                         ["seed 1: base failed its correctness check"])


if __name__ == "__main__":
    unittest.main()

"""Tests of the benchmark's statistics code (stats.py).

    python3 perfbench/test_stats.py
"""

import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_median_of_odd_count(self):
        p = stats.percentile([5, 1, 3, 2, 4] * 5, 0.5)
        self.assertEqual(p["value"], 3)
        self.assertEqual(p["n"], 25)
        self.assertEqual(p["beyond"], 12)

    def test_p99_needs_ten_samples_beyond(self):
        samples = list(range(1, 1001))  # 1..1000
        p = stats.percentile(samples, 0.99)
        self.assertEqual(p["value"], 990)
        self.assertEqual(p["beyond"], 10)
        short = stats.percentile(samples[:999], 0.99)
        self.assertIsNone(short["value"])
        self.assertEqual(short["beyond"], 9)
        self.assertEqual(short["n"], 999)

    def test_missing_operations_rank_above_every_sample(self):
        samples = list(range(1, 991))  # 990 completed
        p = stats.percentile(samples, 0.99, missing=10)
        self.assertEqual(p["n"], 1000)
        self.assertEqual(p["value"], 990)
        p = stats.percentile(samples, 0.99, missing=20)
        self.assertEqual(p["n"], 1010)
        self.assertTrue(math.isinf(p["value"]))

    def test_rejects_bad_quantile(self):
        with self.assertRaises(ValueError):
            stats.percentile([1, 2], 1.0)

    def test_empty(self):
        self.assertIsNone(stats.percentile([], 0.5)["value"])


class OpenLoopTest(unittest.TestCase):
    def test_latency_counts_from_due_time(self):
        # Item 1 was sent 3 ms late (a stall); its latency includes the wait.
        due = [0, 1000, 2000]
        sent = [0, 4000, 2000]
        done = [500, 4500, -1]
        lat, missing, late = stats.open_loop(due, sent, done)
        self.assertEqual(lat, [0.5, 3.5])
        self.assertEqual(missing, 1)
        self.assertEqual(late, [0.0, 3.0, 0.0])

    def test_early_send_is_not_negative_lateness(self):
        _, _, late = stats.open_loop([1000], [900], [1500])
        self.assertEqual(late, [0.0])

    def test_misaligned_inputs(self):
        with self.assertRaises(ValueError):
            stats.open_loop([0], [0, 1], [1])

    def test_closed_loop(self):
        lat, failed = stats.closed_loop([0, 10, 20], [1000, -1, 3020])
        self.assertEqual(lat, [1.0, 3.0])
        self.assertEqual(failed, 1)


class SelfTimeTest(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        spans = [(1, -1, 1, "leaf", 0, 50)]
        self.assertEqual(stats.self_times(spans), {"leaf": [50]})

    def test_children_are_subtracted_once_and_clipped(self):
        spans = [
            (1, -1, 1, "root", 0, 100),
            (2, 1, 1, "a", 10, 40),
            (3, 1, 1, "b", 30, 60),    # overlaps a: covered once
            (4, 1, 1, "c", 90, 120),   # runs past the parent: clipped
        ]
        got = stats.self_times(spans)
        self.assertEqual(got["root"], [100 - 50 - 10])
        self.assertEqual(got["a"], [30])
        self.assertEqual(got["c"], [30])

    def test_grandchildren_count_only_for_their_parent(self):
        spans = [
            (1, -1, 1, "root", 0, 100),
            (2, 1, 1, "child", 0, 60),
            (3, 2, 1, "grandchild", 0, 60),
        ]
        got = stats.self_times(spans)
        self.assertEqual(got["root"], [40])
        self.assertEqual(got["child"], [0])

    def test_durations(self):
        spans = [(1, -1, 1, "x", 5, 9), (2, -1, 2, "x", 0, 1)]
        self.assertEqual(stats.durations(spans), {"x": [4, 1]})


class RatesTest(unittest.TestCase):
    def test_window_rates_drop_partial_tail(self):
        done = [100, 200, 1_100_000, 1_200_000, 1_300_000, 2_050_000, -1]
        rates = stats.window_rates(done, 0, 2_100_000, 1_000_000)
        self.assertEqual(rates, [2.0, 3.0])

    def test_iqr_frac(self):
        self.assertAlmostEqual(stats.iqr_frac([10.0] * 5), 0.0)
        self.assertGreater(stats.iqr_frac([8.0, 9.0, 10.0, 11.0, 12.0]), 0.0)


if __name__ == "__main__":
    unittest.main()

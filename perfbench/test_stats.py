"""Tests of perfbench/stats.py.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_p50_needs_ten_samples_beyond(self):
        self.assertIsNone(stats.percentile(range(1, 20), 0.5))
        self.assertEqual(stats.percentile(range(1, 21), 0.5), 10)

    def test_p90_needs_a_hundred_samples(self):
        self.assertIsNone(stats.percentile(range(1, 100), 0.9))
        self.assertEqual(stats.percentile(range(1, 101), 0.9), 90)

    def test_nearest_rank_ignores_order(self):
        values = [5, 1, 4, 2, 3] * 6
        self.assertEqual(stats.percentile(values, 0.5, min_beyond=0), 3)

    def test_empty(self):
        self.assertIsNone(stats.percentile([], 0.5, min_beyond=0))


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted(self):
        spans = [
            (1, "bench", "op", 0, 100, -1),
            (1, "cec", "verify", 10, 40, 0),
            (1, "io", "write", 50, 60, 0),
        ]
        self.assertEqual(stats.self_times(spans), [60, 30, 10])

    def test_overlapping_children_count_once(self):
        # Two children on different threads overlap in [20, 30).
        spans = [
            (1, "bench", "op", 0, 100, -1),
            (1, "cec", "a", 10, 30, 0),
            (1, "cec", "b", 20, 50, 0),
        ]
        self.assertEqual(stats.self_times(spans)[0], 60)

    def test_child_outside_parent_is_clipped(self):
        spans = [
            (1, "bench", "op", 0, 100, -1),
            (1, "service", "wait", 90, 130, 0),
        ]
        self.assertEqual(stats.self_times(spans)[0], 90)

    def test_grandchildren_only_reduce_their_parent(self):
        spans = [
            (1, "bench", "op", 0, 100, -1),
            (1, "reduce", "r", 0, 80, 0),
            (1, "timing", "sta", 0, 50, 1),
        ]
        self.assertEqual(stats.self_times(spans), [20, 30, 50])
        self.assertEqual(stats.layer_self_ns(spans),
                         {"bench": 20, "reduce": 30, "timing": 50})


class FailFracTest(unittest.TestCase):
    def test_counts_ops_with_a_failure_reason(self):
        ops = [{"failure": ""}, {"failure": "edition not proven equivalent"},
               {"failure": ""}, {"failure": "rejected: overloaded"}]
        self.assertEqual(stats.fail_frac(ops), (4, 2, 0.5))

    def test_no_ops(self):
        self.assertEqual(stats.fail_frac([]), (0, 0, 0.0))


class BalancedMeanTest(unittest.TestCase):
    def test_groups_weigh_equally(self):
        ops = [{"group": "a", "bits": 10}, {"group": "a", "bits": 20},
               {"group": "b", "bits": 100}]
        self.assertEqual(stats.balanced_mean(ops, "bits"), 57.5)


if __name__ == "__main__":
    unittest.main()

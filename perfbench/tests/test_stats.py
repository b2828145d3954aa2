"""Self-tests for perfbench/stats.py.

Run: python3 -m unittest discover -s perfbench/tests
"""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))

import stats  # noqa: E402


class MedianAndQuartiles(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2.0)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_median_rejects_empty(self):
        with self.assertRaises(ValueError):
            stats.median([])

    def test_quartiles_match_statistics_module(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        q = statistics.quantiles(values, n=4)
        self.assertEqual(stats.quartiles(values), (q[0], q[2]))
        # Exclusive method on 1..10: positions 2.75 and 8.25.
        self.assertAlmostEqual(stats.quartiles(values)[0], 2.75)
        self.assertAlmostEqual(stats.quartiles(values)[1], 8.25)

    def test_relative_spread(self):
        values = [10.0] * 5 + [11.0] * 5
        q1, q3 = stats.quartiles(values)
        self.assertAlmostEqual(stats.relative_spread(values), (q3 - q1) / 10.5)
        self.assertEqual(stats.relative_spread([2.0, 2.0, 2.0]), 0.0)


class TailPercentile(unittest.TestCase):
    def test_p99_when_ten_samples_lie_beyond(self):
        values = list(range(1, 1001))  # rank 990, 10 beyond
        self.assertEqual(stats.tail_percentile(values), (990.0, 99.0))

    def test_falls_back_to_highest_percentile_with_ten_beyond(self):
        values = list(range(1, 101))  # p99 would leave 1 beyond
        value, pct = stats.tail_percentile(values)
        self.assertEqual(value, 90.0)
        self.assertAlmostEqual(pct, 90.0)
        self.assertEqual(sum(v > value for v in values), 10)

    def test_order_does_not_matter(self):
        values = list(range(500, 0, -1))
        value, pct = stats.tail_percentile(values)
        self.assertEqual(value, 490.0)
        self.assertAlmostEqual(pct, 98.0)

    def test_few_samples_report_the_maximum(self):
        self.assertEqual(stats.tail_percentile([3.0, 1.0, 2.0]), (3.0, 100.0))
        self.assertEqual(stats.tail_percentile(list(range(10))), (9.0, 100.0))
        # 12 samples: p16.7 would have ten beyond it, but that is no tail.
        self.assertEqual(stats.tail_percentile(list(range(12))), (11.0, 100.0))

    def test_fallback_stops_at_p90(self):
        self.assertEqual(stats.tail_percentile(list(range(1, 101)))[1], 90.0)
        self.assertEqual(stats.tail_percentile(list(range(1, 100))), (99.0, 100.0))


if __name__ == "__main__":
    unittest.main()

import math
import unittest

from wb import stats


class PercentileRules(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 117))  # 116 samples
        self.assertEqual(stats.percentile(values, 50), 58)
        self.assertEqual(stats.percentile(values, 90), 105)
        self.assertEqual(stats.beyond(116, 90), 11)

    def test_refuses_fewer_than_ten_beyond(self):
        with self.assertRaises(stats.TooFewSamples):
            stats.percentile(list(range(99)), 90)
        self.assertEqual(stats.percentile(list(range(100)), 90), 89)
        with self.assertRaises(stats.TooFewSamples):
            stats.percentile([], 50)

    def test_tail_is_capped_and_guarded(self):
        self.assertEqual(stats.tail_pct(116), 90.0)
        self.assertEqual(stats.tail_pct(1000), 90.0)
        self.assertEqual(stats.tail_pct(24), 58.0)
        self.assertIsNone(stats.tail_pct(19))
        for n in (20, 24, 28, 100, 116, 960):
            self.assertGreaterEqual(stats.beyond(n, stats.tail_pct(n)), stats.MIN_BEYOND)

    def test_failures_count_as_slower_than_every_sample(self):
        ok = [float(i) for i in range(1, 111)]
        summary = stats.latency_summary(ok, attempted=116)
        self.assertEqual(summary["n"], 116)
        self.assertEqual(summary["tail"], 105.0)
        bad = stats.latency_summary(ok[:50], attempted=116)
        self.assertTrue(math.isinf(bad["p50"]))
        self.assertTrue(math.isinf(bad["tail"]))

    def test_summary_refuses_tiny_runs(self):
        with self.assertRaises(stats.TooFewSamples):
            stats.latency_summary([1.0] * 12, attempted=12)


if __name__ == "__main__":
    unittest.main()

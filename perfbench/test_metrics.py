"""Self-tests of the benchmark's arithmetic (benchlib/metrics.py).

    python3 perfbench/run.py --self-test
"""

import unittest

from benchlib import metrics as m


def rung(rate, achieved=None, failed=0, latency=50.0, late=5.0, samples=2000):
    return {
        "offered_rate": rate,
        "achieved_rate": rate if achieved is None else achieved,
        "failed": failed,
        "window": 1000,
        "latency_us": [latency] * samples,
        "late_us": [late] * samples,
    }


class PercentileTest(unittest.TestCase):
    def test_linear_interpolation(self):
        self.assertEqual(m.percentile([1.0, 2.0, 3.0, 4.0], 0.5), 2.5)
        self.assertEqual(m.percentile([10.0], 0.99), 10.0)
        self.assertAlmostEqual(m.percentile(list(range(101)), 0.9), 90.0)

    def test_nearest_rank_is_a_sample(self):
        ten = [float(v) for v in range(1, 11)]
        self.assertEqual(m.nearest_rank(ten, 0.9), 9.0)   # not 9.1
        self.assertEqual(m.nearest_rank(ten, 0.5), 5.0)
        self.assertEqual(m.nearest_rank(ten, 0.91), 10.0)
        self.assertEqual(m.nearest_rank(ten, 1.0), 10.0)
        self.assertEqual(m.nearest_rank(list(range(48)), 0.9), 43)  # rank 44 of 48
        self.assertEqual(m.nearest_rank([3.0], 0.5), 3.0)
        with self.assertRaises(ValueError):
            m.nearest_rank(ten, 0.0)

    def test_quiet_is_the_lower_quartile_of_windows(self):
        # Five of eight windows stalled: the quiet quartile is a quiet one.
        self.assertEqual(m.quiet([2000.0, 55.0, 1800.0, 60.0, 3000.0, 57.0, 2500.0, 900.0]), 57.0)
        self.assertEqual(m.quiet([5.0]), 5.0)

    def test_tail_quantile_needs_ten_samples_beyond(self):
        self.assertEqual(m.tail_quantile(10000), 0.999)  # 10 beyond p99.9
        self.assertEqual(m.tail_quantile(9999), 0.99)    # 9.999 beyond p99.9
        self.assertEqual(m.tail_quantile(1000), 0.99)
        self.assertEqual(m.tail_quantile(999), 0.9)
        self.assertEqual(m.tail_quantile(100), 0.9)
        self.assertEqual(m.tail_quantile(20), 0.5)
        self.assertIsNone(m.tail_quantile(19))

    def test_windowed_percentiles_drop_the_partial_window(self):
        values = [1.0, 2.0, 3.0, 100.0, 100.0, 100.0, 7.0]
        self.assertEqual(m.windowed_percentiles(values, 3, 0.5), [2.0, 100.0])


class LadderTest(unittest.TestCase):
    def test_highest_passing_rung(self):
        rungs = [rung(100), rung(200), rung(300, latency=1500.0)]
        self.assertEqual(m.max_rate([rungs]), 200)

    def test_reports_the_median_achieved_rate(self):
        rounds = [[rung(100), rung(200, achieved=197.0)],
                  [rung(100), rung(200, achieved=199.0)],
                  [rung(100), rung(200, achieved=198.0)]]
        self.assertEqual(m.max_rate(rounds), 198.0)

    def test_a_rate_must_pass_in_a_quarter_of_the_rounds(self):
        quiet = [rung(100), rung(200), rung(300, latency=1500.0)]
        lucky = [rung(100), rung(200), rung(300)]
        stalled = [rung(100, latency=1500.0), rung(200, latency=1500.0)]
        # One pass in five rounds is not a quarter; two in five are.
        self.assertEqual(m.max_rate([lucky] + [quiet] * 4), 200)
        self.assertEqual(m.max_rate([lucky] * 2 + [quiet] * 3), 300)
        # Two quiet rounds in eight carry the result past six stalled ones.
        self.assertEqual(m.max_rate([quiet] * 2 + [stalled] * 6), 200)
        self.assertEqual(m.max_rate([quiet] + [stalled] * 7), 0.0)
        # With fewer than five rounds one pass is enough.
        self.assertEqual(m.max_rate([lucky, quiet, quiet, quiet]), 300)

    def test_a_lower_failure_does_not_cap_the_rate(self):
        rungs = [rung(100, failed=1), rung(200), rung(300, latency=1500.0)]
        self.assertEqual(m.max_rate([rungs]), 200)

    def test_a_missing_rung_counts_against_its_rate(self):
        rounds = [[rung(100), rung(200)]] + [[rung(100)]] * 4
        self.assertEqual(m.max_rate(rounds), 100)
        self.assertEqual(m.max_rate(rounds + [[rung(100), rung(200)]]), 200)

    def test_achieved_rate_cut_off(self):
        self.assertTrue(m.rung_passes(rung(1000, achieved=950)))
        self.assertFalse(m.rung_passes(rung(1000, achieved=949)))

    def test_generator_lateness_cut_off(self):
        self.assertTrue(m.rung_passes(rung(100, late=m.LATE_LIMIT_US)))
        self.assertFalse(m.rung_passes(rung(100, late=m.LATE_LIMIT_US + 1)))
        rungs = [rung(100), rung(200, late=m.LATE_LIMIT_US * 2)]
        self.assertEqual(m.max_rate([rungs]), 100)

    def test_tail_is_judged_per_window(self):
        ok, slow = [50.0] * 1000, [5000.0] * 1000
        # One stalled window in three: the median window is fine.
        self.assertTrue(m.windowed_tail_met(ok + slow + ok, 1000, 1000.0))
        self.assertFalse(m.windowed_tail_met(ok + slow + slow, 1000, 1000.0))
        # 1% slow samples sit beyond p99 in every window; 3% do not.
        window = sorted([50.0] * 990 + [5000.0] * 10)
        self.assertTrue(m.windowed_tail_met(window * 3, 1000, 1000.0))
        window = [50.0] * 970 + [5000.0] * 30
        self.assertFalse(m.windowed_tail_met(window * 3, 1000, 1000.0))

    def test_a_window_resolves_p99(self):
        # Windows are widened to 1000 samples, so 10 lie beyond p99.
        values = [50.0] * 990 + [5000.0] * 10
        self.assertTrue(m.windowed_tail_met(values, 100, 1000.0))
        # A short sample is one window; too short to resolve p99 fails.
        self.assertTrue(m.windowed_tail_met([50.0] * 1500, 1000, 1000.0))
        self.assertFalse(m.windowed_tail_met([50.0] * 999, 1000, 1000.0))

    def test_a_stalled_window_does_not_fail_a_rung(self):
        stalled = rung(100)
        stalled["latency_us"] = [50.0] * 2000 + [9000.0] * 1000 + [50.0] * 2000
        stalled["late_us"] = [5.0] * 5000
        self.assertTrue(m.rung_passes(stalled))

    def test_no_passing_rung(self):
        self.assertEqual(m.max_rate([[rung(100, failed=3)]]), 0.0)


class BusyShareTest(unittest.TestCase):
    def test_full_and_idle_threads(self):
        self.assertEqual(m.busy_share([2.0, 2.0, 2.0, 2.0], 4, 2.0), 1.0)
        self.assertEqual(m.busy_share([2.0, 1.0], 4, 2.0), 0.375)

    def test_rejects_empty_phase(self):
        with self.assertRaises(ValueError):
            m.busy_share([1.0], 4, 0.0)


class SelfTimeTest(unittest.TestCase):
    def span(self, start, end):
        return {"start_ns": start, "end_ns": end}

    def test_children_are_subtracted(self):
        parent = self.span(0, 100)
        self.assertEqual(m.self_time(parent, [self.span(10, 30), self.span(50, 60)]), 70)

    def test_overlapping_children_count_once(self):
        parent = self.span(0, 100)
        children = [self.span(10, 50), self.span(40, 70), self.span(60, 65)]
        self.assertEqual(m.self_time(parent, children), 40)

    def test_children_are_clipped_to_the_parent(self):
        parent = self.span(100, 200)
        children = [self.span(50, 120), self.span(190, 400), self.span(300, 500)]
        self.assertEqual(m.self_time(parent, children), 70)

    def test_no_children(self):
        self.assertEqual(m.self_time(self.span(5, 9), []), 4)


if __name__ == "__main__":
    unittest.main()

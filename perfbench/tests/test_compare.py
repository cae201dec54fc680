"""Self-tests of the parent-versus-change verdict rule (compare.py)."""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import compare  # noqa: E402


def runs(values):
    return {seed: value for seed, value in enumerate(values)}


PARENT = runs([100, 101, 99, 100, 102, 98, 100, 101, 99, 100])
# A host whose speed drifts by half over the runs: the same code reads
# 100 on the first seed and 150 on the last.
DRIFT = [100, 104, 110, 117, 122, 128, 133, 139, 144, 150]


class VerdictTest(unittest.TestCase):
    def test_clear_gain_is_improved(self):
        change = runs([90, 91, 89, 90, 92, 88, 90, 91, 89, 90])
        row = compare.verdict(PARENT, change, "lower", 0.1)
        self.assertEqual(row["verdict"], "improved")
        self.assertEqual(row["wins"], 1.0)

    def test_small_shift_within_spread_is_unchanged(self):
        change = runs([99.5, 100.5, 99, 100, 101, 98, 99.5, 100, 99, 100])
        row = compare.verdict(PARENT, change, "lower", 0.1)
        self.assertEqual(row["verdict"], "unchanged")

    def test_regression_beyond_bound_is_worse(self):
        change = runs([120, 121, 119, 120, 122, 118, 120, 121, 119, 120])
        row = compare.verdict(PARENT, change, "lower", 0.1)
        self.assertEqual(row["verdict"], "worse")

    def test_higher_is_better_direction(self):
        change = runs([120, 121, 119, 120, 122, 118, 120, 121, 119, 120])
        row = compare.verdict(PARENT, change, "higher", 0.1)
        self.assertEqual(row["verdict"], "improved")

    def test_pairs_that_disagree_are_unresolved(self):
        parent = runs([100] * 10)
        change = runs([60, 140, 80, 120, 100, 70, 130, 90, 110, 100])
        row = compare.verdict(parent, change, "lower", 0.1)
        self.assertEqual(row["verdict"], "unresolved")

    def test_host_drift_cancels_in_interleaved_pairs(self):
        # Same code on both sides, each pair run back to back: the medians
        # of the two sides differ, the pairs do not.
        parent = runs(DRIFT)
        change = runs([v * 1.01 for v in DRIFT])
        row = compare.verdict(parent, change, "lower", 0.1)
        self.assertEqual(row["verdict"], "unchanged")
        # A real 20% regression on the drifting host is still worse...
        change = runs([v * 1.2 for v in DRIFT])
        self.assertEqual(compare.verdict(parent, change, "lower", 0.1)["verdict"],
                         "worse")
        # ...and a 30% gain is improved: it beats the parent's own spread
        # (0.2 here), although that spread is wider than the bound.
        change = runs([v * 0.7 for v in DRIFT])
        self.assertEqual(compare.verdict(parent, change, "lower", 0.1)["verdict"],
                         "improved")

    def test_ties_count_for_neither_side(self):
        change = dict(PARENT)
        row = compare.verdict(PARENT, change, "lower", 0.1)
        self.assertEqual(row["wins"], 0.0)
        self.assertEqual(row["verdict"], "unchanged")

    def test_no_shared_seeds_is_unresolved(self):
        change = {seed + 100: value for seed, value in PARENT.items()}
        row = compare.verdict(PARENT, change, "lower", 0.1)
        self.assertEqual(row["pairs"], 0)
        self.assertEqual(row["verdict"], "unresolved")


class InterleavingTest(unittest.TestCase):
    def test_overlapping_run_times_are_interleaved(self):
        parent = [{"time": t} for t in (0, 20, 40)]
        change = [{"time": t} for t in (10, 30, 50)]
        self.assertTrue(compare.interleaved(parent, change))

    def test_one_side_after_the_other_is_not(self):
        parent = [{"time": t} for t in (0, 10, 20)]
        change = [{"time": t} for t in (30, 40, 50)]
        self.assertFalse(compare.interleaved(parent, change))


if __name__ == "__main__":
    unittest.main()

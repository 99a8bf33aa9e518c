"""Tests for repro.matching.capacitated."""

import numpy as np
import pytest

from repro.hst.paths import tree_distance_for_level
from repro.matching import HSTGreedyMatcher
from repro.matching.capacitated import CapacitatedHSTGreedyMatcher

#: leaves of the depth-3 binary tree the small cases use
L000, L001, L100, L111 = 0, 1, 4, 7


def random_leaves(n, depth, branching, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, branching**depth, size=n).tolist()


class TestBasics:
    def test_capacity_counts(self):
        matcher = CapacitatedHSTGreedyMatcher(
            3, 2, [L000, L111], capacities=[2, 3]
        )
        assert matcher.available == 2
        assert matcher.remaining_capacity == 5
        assert matcher.remaining_of(1) == 3

    def test_scalar_capacity_broadcasts(self):
        matcher = CapacitatedHSTGreedyMatcher(
            3, 2, [L000, L111], capacities=2
        )
        assert matcher.remaining_capacity == 4

    def test_zero_capacity_worker_never_matched(self):
        matcher = CapacitatedHSTGreedyMatcher(
            3, 2, [L000, L111], capacities=[0, 1]
        )
        worker, _ = matcher.assign(L000)
        assert worker == 1

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            CapacitatedHSTGreedyMatcher(3, 2, [L000], capacities=-1)


class TestAssignment:
    def test_worker_reused_up_to_capacity(self):
        matcher = CapacitatedHSTGreedyMatcher(
            3, 2, [L000], capacities=3
        )
        for _ in range(3):
            assert matcher.assign(L000) == (0, 0)
        assert matcher.assign(L000) is None

    def test_nearest_rule_preserved(self):
        matcher = CapacitatedHSTGreedyMatcher(
            3, 2, [L001, L100], capacities=[2, 2]
        )
        # leaf 001 is the level-1 neighbour of the query; it absorbs both
        # assignments before the cross-root worker is touched
        assert matcher.assign(L000)[0] == 0
        assert matcher.assign(L000)[0] == 0
        assert matcher.assign(L000)[0] == 1

    def test_unit_capacity_matches_plain_greedy(self):
        workers = random_leaves(30, 5, 3, seed=0)
        tasks = random_leaves(30, 5, 3, seed=1)
        plain = HSTGreedyMatcher(5, 3, workers)
        capped = CapacitatedHSTGreedyMatcher(5, 3, workers, capacities=1)
        for task in tasks:
            a = plain.assign(task)
            b = capped.assign(task)
            # decisions may differ on ties; distances must agree
            assert tree_distance_for_level(a[1]) == tree_distance_for_level(b[1])

    def test_capacity_two_halves_required_fleet(self):
        """20 tasks need only 10 capacity-2 workers."""
        workers = random_leaves(10, 4, 2, seed=2)
        tasks = random_leaves(20, 4, 2, seed=3)
        matcher = CapacitatedHSTGreedyMatcher(4, 2, workers, capacities=2)
        results = [matcher.assign(t) for t in tasks]
        assert all(r is not None for r in results)
        assert matcher.remaining_capacity == 0


class TestRelease:
    def test_release_restores_capacity(self):
        matcher = CapacitatedHSTGreedyMatcher(3, 2, [L000], capacities=1)
        worker, _ = matcher.assign(L000)
        assert matcher.assign(L000) is None
        matcher.release(worker)
        assert matcher.assign(L000) == (0, 0)

    def test_release_partial_capacity(self):
        matcher = CapacitatedHSTGreedyMatcher(3, 2, [L000], capacities=2)
        matcher.assign(L000)
        matcher.release(0)
        assert matcher.remaining_of(0) == 2
        assert matcher.available == 1

    def test_release_without_outstanding_assignment_rejected(self):
        matcher = CapacitatedHSTGreedyMatcher(
            3, 2, [L000, L111], capacities=[1, 0]
        )
        for worker in (0, 1):
            with pytest.raises(ValueError):
                matcher.release(worker)
        assert matcher.remaining_capacity == 1
        assert matcher.assign(L000) == (0, 0)
        assert matcher.assign(L000) is None  # worker 0 served once, 1 never
        matcher.release(0)
        with pytest.raises(ValueError):
            matcher.release(0)
        assert matcher.remaining_capacity == 1

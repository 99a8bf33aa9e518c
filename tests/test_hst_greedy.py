"""Tests for repro.matching.hst_greedy: Algorithm 4."""

import numpy as np
import pytest

from repro.hst.paths import path_to_leaf, tree_distance, tree_distance_for_level
from repro.matching import HSTGreedyMatcher, max_level_within


def binary(*digits):
    """Leaf index of a path in a branching-2 tree."""
    return path_to_leaf(digits, 2)


class TestMaxLevelWithin:
    def test_thresholds(self):
        # distances: level 1 -> 4, level 2 -> 12, level 3 -> 28
        assert max_level_within(0) == 0
        assert max_level_within(3.9) == 0
        assert max_level_within(4) == 1
        assert max_level_within(27.9) == 2
        assert max_level_within(28) == 3

    def test_negative_budget(self):
        assert max_level_within(-1) == -1


class TestAssign:
    def test_nearest_on_tree_is_chosen(self):
        workers = [binary(0, 1, 0), binary(1, 0, 0)]
        matcher = HSTGreedyMatcher(3, 2, workers)
        worker, level = matcher.assign(binary(0, 0, 0))
        assert worker == 0  # LCA level 2 beats level 3
        assert level == 2

    def test_workers_are_consumed(self):
        matcher = HSTGreedyMatcher(3, 2, [0, 0])
        assert matcher.available == 2
        matcher.assign(0)
        assert matcher.available == 1
        matcher.assign(0)
        assert matcher.available == 0
        assert matcher.assign(0) is None

    def test_leaves_validated(self):
        with pytest.raises(ValueError):
            HSTGreedyMatcher(3, 2, [8])
        matcher = HSTGreedyMatcher(3, 2, [0])
        with pytest.raises(ValueError):
            matcher.assign(-1)
        with pytest.raises(ValueError):
            matcher.add_workers([0, 8])
        assert matcher.available == 1  # a refused cohort admits nobody
        with pytest.raises(TypeError):
            matcher.assign((0, 0, 0))

    def test_add_workers_continues_slots(self):
        matcher = HSTGreedyMatcher(3, 2, [0])
        first = matcher.add_workers([binary(1, 1, 1)] * 20)
        assert first == 1
        assert matcher.available == 21
        assert matcher.slot_leaf(20) == 7
        assert matcher.assign(7) == (20, 0)

    def test_matches_naive_greedy_distances(self):
        """The trie-backed matcher picks workers at exactly the distances a
        literal Algorithm 4 scan would (ties may pick different workers)."""
        rng = np.random.default_rng(3)
        depth, branching = 5, 3
        worker_paths = [
            tuple(int(v) for v in rng.integers(0, branching, size=depth))
            for _ in range(25)
        ]
        tasks = [
            tuple(int(v) for v in rng.integers(0, branching, size=depth))
            for _ in range(25)
        ]
        matcher = HSTGreedyMatcher(
            depth, branching, [path_to_leaf(p, branching) for p in worker_paths]
        )
        available = dict(enumerate(worker_paths))
        for task in tasks:
            worker, level = matcher.assign(path_to_leaf(task, branching))
            naive_best = min(
                tree_distance(path, task) for path in available.values()
            )
            assert tree_distance_for_level(level) == naive_best
            del available[worker]

    def test_for_tree_constructor(self, example1_tree):
        matcher = HSTGreedyMatcher.for_tree(example1_tree, example1_tree.leaf_index)
        worker, level = matcher.assign(example1_tree.leaf_index[0])
        assert worker == 0 and level == 0


class TestAssignReachable:
    def test_scalar_radius(self):
        workers = [binary(1, 0, 0)]  # distance 28 from the query
        matcher = HSTGreedyMatcher(3, 2, workers)
        assert matcher.assign_reachable(0, 27.0) is None
        assert matcher.available == 1
        assert matcher.assign_reachable(0, 28.0) == (0, 3)
        assert matcher.available == 0

    def test_per_worker_radii_skips_unreachable_nearer_worker(self):
        # worker 0 nearer (level 2, distance 12) but tiny radius;
        # worker 1 farther (level 3, distance 28) with a big radius
        workers = [binary(0, 1, 0), binary(1, 0, 0)]
        budgets = [5.0, 100.0]
        matcher = HSTGreedyMatcher(3, 2, workers)
        worker, level = matcher.assign_reachable(0, budgets)
        assert (worker, level) == (1, 3)
        assert matcher.available == 1

    def test_no_reachable_worker(self):
        matcher = HSTGreedyMatcher(3, 2, [binary(1, 0, 0)])
        assert matcher.assign_reachable(0, [1.0]) is None


class TestRelease:
    def test_release_returns_worker(self):
        matcher = HSTGreedyMatcher(3, 2, [binary(0, 1, 1)])
        worker, _ = matcher.assign(binary(0, 1, 1))
        assert matcher.available == 0
        matcher.release(worker)  # back under the leaf its slot was admitted with
        assert matcher.available == 1
        assert matcher.assign(binary(0, 1, 1)) == (0, 0)

    def test_double_release_rejected(self):
        matcher = HSTGreedyMatcher(3, 2, [0])
        matcher.assign(0)
        matcher.release(0)
        with pytest.raises(ValueError):
            matcher.release(0)


class TestMatchingQuality:
    def test_colocated_leaves_match_at_distance_zero(self, small_grid_tree):
        """Without obfuscation, tasks at worker leaves match for free."""
        leaves = small_grid_tree.leaf_index[:10].tolist()
        matcher = HSTGreedyMatcher.for_tree(small_grid_tree, leaves)
        total = 0
        for leaf in leaves:
            _, level = matcher.assign(leaf)
            total += tree_distance_for_level(level)
        assert total == 0

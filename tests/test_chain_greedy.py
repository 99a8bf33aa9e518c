"""Tests for repro.matching.chain_greedy: the Bansal et al. style matcher."""

import numpy as np
import pytest

from repro.hst.paths import leaf_to_path, path_to_leaf, tree_distance
from repro.matching import HSTChainMatcher, HSTGreedyMatcher


def binary(*digits):
    """Leaf index of a path in a branching-2 tree."""
    return path_to_leaf(digits, 2)


class TestBasics:
    def test_single_worker(self):
        matcher = HSTChainMatcher(3, 2, [binary(0, 0, 0)])
        worker, hops = matcher.assign(binary(1, 1, 1))
        assert worker == 0
        assert matcher.available == 0
        assert matcher.assign(binary(0, 0, 0)) is None

    def test_direct_hit_is_zero_hops(self):
        matcher = HSTChainMatcher(3, 2, [binary(0, 0, 0)])
        _, hops = matcher.assign(binary(0, 0, 0))
        assert hops == 0

    def test_each_worker_used_once(self):
        rng = np.random.default_rng(0)
        leaves = rng.integers(0, 2**4, size=20).tolist()
        matcher = HSTChainMatcher(4, 2, leaves)
        used = set()
        for _ in range(20):
            worker, _ = matcher.assign(int(rng.integers(0, 2**4)))
            assert worker not in used
            used.add(worker)
        assert matcher.assign(0) is None

    def test_bad_max_hops(self):
        with pytest.raises(ValueError):
            HSTChainMatcher(3, 2, [0], max_hops=0)

    def test_leaves_validated(self):
        with pytest.raises(ValueError):
            HSTChainMatcher(3, 2, [8])
        with pytest.raises(ValueError):
            HSTChainMatcher(3, 2, [0]).assign(8)


class TestChaining:
    def test_chain_hops_through_matched_worker(self):
        """With the nearest worker already matched, the chain continues
        from its position rather than scanning from the task."""
        # worker 0 at the query leaf, worker 1 a sibling of worker 0,
        # worker 2 across the root
        leaves = [binary(0, 0, 0), binary(0, 0, 1), binary(1, 1, 1)]
        matcher = HSTChainMatcher(3, 2, leaves)
        first, hops_a = matcher.assign(binary(0, 0, 0))
        assert first == 0 and hops_a == 0
        # second task at the same leaf: nearest is matched worker 0; the
        # chain hops to worker 0's position, then picks its sibling 1
        second, hops_b = matcher.assign(binary(0, 0, 0))
        assert second == 1
        assert hops_b == 1

    def test_exhausts_to_fallback_when_chain_cycles(self):
        """max_hops triggers the nearest-unmatched fallback, never a miss."""
        rng = np.random.default_rng(2)
        leaves = rng.integers(0, 3**4, size=30).tolist()
        matcher = HSTChainMatcher(4, 3, leaves, max_hops=1)
        results = [matcher.assign(int(rng.integers(0, 3**4))) for _ in range(30)]
        assert all(r is not None for r in results)
        assert len({r[0] for r in results}) == 30


class TestQualityAgainstGreedy:
    @pytest.mark.parametrize("seed", range(3))
    def test_comparable_total_distance(self, seed):
        """HST-Chain should be within a small constant of HST-Greedy on
        random instances (both are O(polylog)-competitive)."""
        rng = np.random.default_rng(seed)
        depth, branching = 6, 2
        workers = rng.integers(0, 2**depth, size=40).tolist()
        tasks = rng.integers(0, 2**depth, size=40).tolist()
        greedy = HSTGreedyMatcher(depth, branching, workers)
        chain = HSTChainMatcher(depth, branching, workers)

        def distance(a, b):
            return tree_distance(
                leaf_to_path(a, depth, branching), leaf_to_path(b, depth, branching)
            )

        greedy_total = 0
        chain_total = 0
        for task in tasks:
            worker_g, _ = greedy.assign(task)
            greedy_total += distance(workers[worker_g], task)
            worker_c, _ = chain.assign(task)
            chain_total += distance(workers[worker_c], task)
        assert chain_total < 5 * greedy_total + 100
        assert greedy_total < 5 * chain_total + 100

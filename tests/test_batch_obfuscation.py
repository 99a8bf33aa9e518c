"""Tests for TreeMechanism.obfuscate_points_batch: the vectorized sampler
over leaf indices."""

import numpy as np
import pytest

from repro.hst import build_hst, lca_level
from repro.privacy import TreeMechanism

from .conftest import EXAMPLE1_POINTS


@pytest.fixture(scope="module")
def tree():
    return build_hst(EXAMPLE1_POINTS, beta=0.5, permutation=[0, 1, 2, 3])


@pytest.fixture(scope="module")
def mech(tree):
    return TreeMechanism(tree, epsilon=0.1, seed=0)


def _levels(tree, x, out):
    """LCA level of each reported leaf index with the path ``x``."""
    return np.array([lca_level(x, tree.path_of_leaf(z)) for z in out])


class TestShapeAndValidity:
    def test_output_shape(self, tree, mech):
        points = np.zeros(10, dtype=np.intp)
        out = mech.obfuscate_points_batch(points, np.random.default_rng(0))
        assert out.shape == (10,)
        assert out.dtype == np.int64

    def test_outputs_are_valid_paths(self, tree, mech):
        rng = np.random.default_rng(1)
        out = mech.obfuscate_points_batch(np.zeros(200, dtype=np.intp), rng)
        assert out.min() >= 0
        assert out.max() < tree.num_leaves

    def test_empty_batch(self, tree, mech):
        out = mech.obfuscate_points_batch(np.empty(0, dtype=np.intp))
        assert out.shape == (0,)
        assert out.dtype == np.int64

    def test_input_not_mutated(self, tree, mech):
        # the published leaf column is the kernel's input: a batch turns
        # a copy of it
        before = tree.leaf_index.copy()
        for points in ([0, 2], [3]):
            mech.obfuscate_points_batch(points, np.random.default_rng(2))
        assert np.array_equal(tree.leaf_index, before)

    def test_rejects_wrong_width(self, tree, mech):
        # a batch is one column of point indices; 2-d input is refused
        with pytest.raises(ValueError):
            mech.obfuscate_points_batch(np.zeros((3, 2), dtype=int))
        with pytest.raises(ValueError):
            mech.obfuscate_points_batch(tree.paths[:3])

    def test_rejects_out_of_range(self, tree, mech):
        for bad in (tree.n_points, -1):
            for points in ([bad], [0, bad]):
                with pytest.raises(IndexError):
                    mech.obfuscate_points_batch(np.array(points))


class TestDistribution:
    def test_matches_exact_distribution(self, tree, mech):
        """Empirical batch distribution vs the Algorithm 2 closed form."""
        x = tree.path_of(0)
        exact = mech.distribution(x)
        n = 40_000
        out = mech.obfuscate_points_batch(np.zeros(n, dtype=np.intp), np.random.default_rng(3))
        counts = {}
        for z in out:
            key = tree.path_of_leaf(z)
            counts[key] = counts.get(key, 0) + 1
        assert set(counts) <= set(exact)
        tv = 0.5 * sum(
            abs(counts.get(z, 0) / n - p) for z, p in exact.items()
        )
        assert tv < 0.03

    def test_level_marginals_match_walk(self, tree, mech):
        x = tree.path_of(2)
        n = 20_000
        out = mech.obfuscate_points_batch(np.full(n, 2), np.random.default_rng(4))
        levels = _levels(tree, x, out)
        for lvl in range(tree.depth + 1):
            expected = mech.weights.level_probs[lvl]
            assert abs(float(np.mean(levels == lvl)) - expected) < 0.02

    def test_mixed_inputs_each_follow_own_law(self, tree, mech):
        """A batch mixing different true leaves obfuscates each correctly:
        the stay probability applies per row."""
        n = 10_000
        out = mech.obfuscate_points_batch(np.repeat([0, 2], n), np.random.default_rng(5))
        stay0 = float(np.mean(out[:n] == tree.leaf_index[0]))
        stay2 = float(np.mean(out[n:] == tree.leaf_index[2]))
        expected = mech.weights.stay_probability
        assert abs(stay0 - expected) < 0.02
        assert abs(stay2 - expected) < 0.02

    def test_unary_tree_identity(self):
        unary = build_hst([(3.0, 4.0)], seed=0)
        m = TreeMechanism(unary, epsilon=0.5)
        for n in (1, 5):
            out = m.obfuscate_points_batch(np.zeros(n, dtype=np.intp), np.random.default_rng(0))
            assert np.array_equal(out, np.zeros(n, dtype=np.int64))


class TestPipelineConsistency:
    def test_batch_and_scalar_agree_on_grid_tree(self, small_grid_tree):
        mech = TreeMechanism(small_grid_tree, epsilon=0.3)
        x = small_grid_tree.path_of(7)
        n = 15_000
        batch = mech.obfuscate_points_batch(np.full(n, 7), np.random.default_rng(6))
        rng = np.random.default_rng(7)
        scalar_levels = np.array(
            [lca_level(x, mech.obfuscate_walk(x, rng)) for _ in range(n)]
        )
        batch_levels = _levels(small_grid_tree, x, batch)
        for lvl in range(small_grid_tree.depth + 1):
            a = float(np.mean(scalar_levels == lvl))
            b = float(np.mean(batch_levels == lvl))
            assert abs(a - b) < 0.025

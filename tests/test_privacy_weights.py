"""Tests for repro.privacy.weights: Eqs. 3, 4 and 7."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hst.paths import sibling_set_size, tree_distance_for_level
from repro.privacy import TreeWeights


class TestTableI:
    """Weights of the paper's Example 2 (Table I): eps = 0.1, D = 4, c = 2."""

    @pytest.fixture(scope="class")
    def weights(self):
        return TreeWeights.compute(epsilon=0.1, depth=4, branching=2)

    def test_wt_values(self, weights):
        assert weights.wt[0] == 1.0
        assert weights.wt[1] == pytest.approx(0.670, abs=5e-4)
        assert weights.wt[2] == pytest.approx(0.301, abs=5e-4)
        assert weights.wt[3] == pytest.approx(0.061, abs=5e-4)
        assert weights.wt[4] == pytest.approx(0.002, abs=5e-4)

    def test_probabilities(self, weights):
        probs = [weights.leaf_probability(i) for i in range(5)]
        assert probs[0] == pytest.approx(0.394, abs=5e-4)
        assert probs[1] == pytest.approx(0.264, abs=5e-4)
        assert probs[2] == pytest.approx(0.119, abs=5e-4)
        assert probs[3] == pytest.approx(0.024, abs=5e-4)
        assert probs[4] == pytest.approx(0.001, abs=5e-4)

    def test_total_weight_formula(self, weights):
        expected = 1.0 + sum(
            2 ** (i - 1) * math.exp(0.1 * (4 - 2 ** (i + 2))) for i in range(1, 5)
        )
        assert weights.total_weight == pytest.approx(expected)

    def test_level_counts(self, weights):
        assert weights.level_counts.tolist() == [1, 1, 2, 4, 8]


class TestNormalizationAndShape:
    @pytest.mark.parametrize(
        "eps,depth,branching",
        [(0.2, 4, 2), (1.0, 6, 3), (0.05, 10, 5), (2.0, 3, 4), (0.6, 10, 18)],
    )
    def test_level_probs_sum_to_one(self, eps, depth, branching):
        w = TreeWeights.compute(eps, depth, branching)
        assert w.level_probs.sum() == pytest.approx(1.0)

    def test_wt_is_exp_of_minus_eps_distance(self):
        w = TreeWeights.compute(0.3, 5, 2)
        for i in range(6):
            expected = math.exp(-0.3 * tree_distance_for_level(i))
            assert w.wt[i] == pytest.approx(expected)

    def test_wt_strictly_decreasing(self):
        w = TreeWeights.compute(0.4, 8, 3)
        positive = w.wt[w.wt > 0]
        assert np.all(np.diff(positive) < 0)

    def test_counts_match_paths_module(self):
        w = TreeWeights.compute(0.5, 7, 4)
        for i in range(8):
            assert w.level_counts[i] == sibling_set_size(i, 4)


class TestSuffixWeightsAndWalkProbabilities:
    def test_tw_definition(self):
        w = TreeWeights.compute(0.1, 4, 2)
        for k in range(5):
            expected = sum(
                w.level_counts[i] * w.wt[i] for i in range(max(k, 0), 5)
            )
            if k == 0:
                assert w.tw[0] == pytest.approx(w.total_weight)
            assert w.tw[k] == pytest.approx(expected)
        assert w.tw[5] == 0.0

    def test_pu_telescoping_gives_level_probs(self):
        """prod_{j<i} pu_j * (1 - pu_i) equals the level-i probability."""
        w = TreeWeights.compute(0.1, 4, 2)
        for level in range(5):
            prob = 1.0
            for j in range(level):
                prob *= w.pu[j]
            prob *= 1.0 - w.pu[level]
            assert prob == pytest.approx(w.level_probs[level])

    def test_walk_must_turn_at_root(self):
        w = TreeWeights.compute(0.7, 6, 3)
        assert w.pu[w.depth] == 0.0

    def test_pu_within_unit_interval(self):
        w = TreeWeights.compute(0.01, 12, 6)
        assert np.all(w.pu >= 0.0)
        assert np.all(w.pu <= 1.0)

    def test_deep_underflow_is_graceful(self):
        """Huge epsilon drives deep weights to 0; pu must stay finite."""
        w = TreeWeights.compute(50.0, 12, 4)
        assert np.all(np.isfinite(w.pu))
        assert w.stay_probability == pytest.approx(1.0, abs=1e-6)


class TestDerivedQuantities:
    def test_stay_probability(self):
        w = TreeWeights.compute(0.1, 4, 2)
        assert w.stay_probability == pytest.approx(1.0 / w.total_weight)

    def test_expected_displacement_matches_manual_sum(self):
        w = TreeWeights.compute(0.2, 5, 3)
        manual = sum(
            w.level_probs[i] * tree_distance_for_level(i) for i in range(6)
        )
        assert w.expected_displacement == pytest.approx(manual)

    def test_more_privacy_means_more_displacement(self):
        loose = TreeWeights.compute(1.0, 6, 2).expected_displacement
        strict = TreeWeights.compute(0.1, 6, 2).expected_displacement
        assert strict > loose

    def test_leaf_probability_bounds(self):
        w = TreeWeights.compute(0.3, 5, 2)
        with pytest.raises(IndexError):
            w.leaf_probability(6)
        with pytest.raises(IndexError):
            w.leaf_probability(-1)


class TestValidation:
    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ValueError):
            TreeWeights.compute(0.0, 4, 2)
        with pytest.raises(ValueError):
            TreeWeights.compute(-1.0, 4, 2)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_epsilon(self, bad):
        with pytest.raises(ValueError):
            TreeWeights.compute(bad, 4, 2)

    def test_rejects_bad_depth(self):
        with pytest.raises(ValueError):
            TreeWeights.compute(0.5, 0, 2)

    def test_rejects_bad_branching(self):
        with pytest.raises(ValueError):
            TreeWeights.compute(0.5, 4, 0)

    def test_from_tree_reads_shape(self, example1_tree):
        w = TreeWeights.from_tree(example1_tree, 0.1)
        assert w.depth == example1_tree.depth
        assert w.branching == example1_tree.branching


@settings(max_examples=60, deadline=None)
@given(
    eps=st.floats(0.01, 5.0, allow_nan=False),
    depth=st.integers(1, 12),
    branching=st.integers(1, 8),
)
def test_property_geo_i_weight_ratio(eps, depth, branching):
    """The defining inequality of Theorem 1 at the weight level:
    log(wt_i / wt_j) <= eps * dT(max(i, j)) for all level pairs."""
    w = TreeWeights.compute(eps, depth, branching)
    tiny = np.finfo(np.float64).tiny  # subnormals lose log precision
    for i in range(depth + 1):
        for j in range(depth + 1):
            if w.wt[j] < tiny or w.wt[i] < tiny:
                continue
            log_ratio = math.log(w.wt[i]) - math.log(w.wt[j])
            assert log_ratio <= eps * tree_distance_for_level(max(i, j)) + 1e-6

"""Tests for repro.hst.tree: the complete-HST wrapper."""

import numpy as np
import pytest

from repro.hst import HST, build_hst

from .conftest import random_point_set


class TestShape:
    def test_counts(self, example1_tree):
        assert example1_tree.n_points == 4
        assert example1_tree.num_leaves == 2**4
        assert example1_tree.max_tree_distance == 60

    def test_validation_rejects_bad_paths(self, example1_tree):
        with pytest.raises(ValueError):
            example1_tree.validate_path((0, 0, 0))
        with pytest.raises(ValueError):
            example1_tree.validate_path((0, 0, 0, 2))

    def test_constructor_validates_shapes(self):
        with pytest.raises(ValueError):
            HST(
                points=np.zeros((2, 2)),
                depth=3,
                branching=2,
                paths=np.zeros((2, 2), dtype=np.int32),  # wrong width
                metric_scale=1.0,
                beta=0.5,
                permutation=np.array([0, 1]),
            )

    def test_constructor_rejects_out_of_range_paths(self):
        with pytest.raises(ValueError):
            HST(
                points=np.array([[0.0, 0.0], [2.0, 0.0]]),
                depth=2,
                branching=2,
                paths=np.array([[0, 0], [5, 0]], dtype=np.int32),
                metric_scale=1.0,
                beta=0.5,
                permutation=np.array([0, 1]),
            )


    def test_constructor_rejects_leaf_indices_past_int64(self):
        # leaf indices must fit an int64: c**D < 2**63
        with pytest.raises(ValueError, match="2\\*\\*63"):
            HST(
                points=np.zeros((1, 2)),
                depth=63,
                branching=2,
                paths=np.zeros((1, 63), dtype=np.int32),
                metric_scale=1.0,
                beta=0.5,
                permutation=np.array([0]),
            )


class TestLeafIndex:
    def test_column_reads_paths_as_base_c_digits(self, example1_tree):
        t = example1_tree
        assert t.leaf_index.dtype == np.int64
        for i in range(t.n_points):
            digits = t.path_of(i)
            expected = sum(d * t.branching ** (t.depth - 1 - j) for j, d in enumerate(digits))
            assert t.leaf_index[i] == expected

    def test_conversions_round_trip(self, small_grid_tree):
        t = small_grid_tree
        for i in range(t.n_points):
            leaf = t.leaf_of_path(t.path_of(i))
            assert leaf == t.leaf_index[i]
            assert t.path_of_leaf(leaf) == t.path_of(i)
        # fake leaves convert too: every index of the complete tree
        assert t.path_of_leaf(t.num_leaves - 1) == (t.branching - 1,) * t.depth

    def test_conversions_validate(self, example1_tree):
        t = example1_tree
        for bad in (-1, t.num_leaves):
            with pytest.raises(ValueError):
                t.path_of_leaf(bad)
        with pytest.raises(ValueError):
            t.leaf_of_path((0, 0, 0, 2))


class TestLeafLookup:
    def test_roundtrip(self, example1_tree):
        for i in range(example1_tree.n_points):
            assert example1_tree.point_of(example1_tree.path_of(i)) == i

    def test_fake_leaf_is_not_real(self, example1_tree):
        # (0, 0, 1, 0) is a fake leaf in Fig. 3 (f-node under o1's branch)
        assert example1_tree.point_of((0, 0, 1, 0)) is None
        assert not example1_tree.is_real_leaf((0, 0, 1, 0))

    def test_real_leaf_flag(self, example1_tree):
        assert example1_tree.is_real_leaf((0, 0, 0, 0))

    def test_path_of_out_of_range(self, example1_tree):
        with pytest.raises(IndexError):
            example1_tree.path_of(4)


class TestDistances:
    def test_example1_distances(self, example1_tree):
        t = example1_tree
        assert t.tree_distance_points(0, 1) == 28
        assert t.tree_distance_points(0, 2) == 60
        assert t.tree_distance_points(2, 3) == 12
        assert t.tree_distance_points(1, 1) == 0

    def test_distance_to_fake_leaf(self, example1_tree):
        # f-leaf sharing o1's level-1 parent: LCA level 1 -> distance 4
        o1 = example1_tree.path_of(0)
        fake = (0, 0, 0, 1)
        assert example1_tree.tree_distance(o1, fake) == 4

    def test_metric_conversion_identity_scale(self, example1_tree):
        o1, o3 = example1_tree.path_of(0), example1_tree.path_of(2)
        assert example1_tree.tree_distance_metric(o1, o3) == pytest.approx(60.0)


class TestRealStructure:
    def test_example1_children(self, example1_tree):
        children = example1_tree.real_children
        assert children[()] == 2  # root splits into {o1,o2} and {o3,o4}
        assert children[(0,)] == 2  # {o1,o2} splits at level 3
        assert children[(1,)] == 1  # {o3,o4} stays together at level 3
        assert children[(1, 0)] == 2  # and splits at level 2

    def test_real_node_count_example1(self, example1_tree):
        # Fig. 2b: 1 root + 2 + 3 + 4 internal levels + 4 leaves = 14
        assert example1_tree.real_node_count == 14

    def test_branching_equals_max_children(self):
        tree = build_hst(random_point_set(30, 5), seed=5)
        assert tree.branching == max(tree.real_children.values())

    def test_child_counts_are_positive(self, small_grid_tree):
        assert all(c >= 1 for c in small_grid_tree.real_children.values())

    def test_prefix_lengths_span_all_internal_levels(self, small_grid_tree):
        lengths = {len(k) for k in small_grid_tree.real_children}
        assert lengths == set(range(small_grid_tree.depth))


class TestSnapping:
    def test_leaf_for_location_is_nearest(self, small_grid_tree):
        rng = np.random.default_rng(11)
        pts = small_grid_tree.points
        for _ in range(20):
            q = rng.random(2) * 100
            leaf = small_grid_tree.leaf_for_location(q)
            idx = small_grid_tree.point_of(leaf)
            d_best = np.hypot(*(pts[idx] - q))
            d_all = np.hypot(pts[:, 0] - q[0], pts[:, 1] - q[1])
            assert d_best == pytest.approx(d_all.min())

    def test_leaves_for_locations_matches_scalar(self, small_grid_tree):
        rng = np.random.default_rng(13)
        qs = rng.random((15, 2)) * 100
        batch = small_grid_tree.leaves_for_locations(qs)
        single = [
            small_grid_tree.leaf_of_path(small_grid_tree.leaf_for_location(q))
            for q in qs
        ]
        assert batch.dtype == np.int64
        assert batch.tolist() == single

    def test_snap_own_point_is_identity(self, small_grid_tree):
        for i in (0, 7, 35):
            loc = small_grid_tree.points[i]
            assert small_grid_tree.leaf_for_location(loc) == small_grid_tree.path_of(i)

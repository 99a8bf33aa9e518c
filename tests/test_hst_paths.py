"""Tests for repro.hst.paths: the leaf-path algebra of complete HSTs."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hst import (
    common_prefix_length,
    edge_length,
    enumerate_leaves,
    lca_level,
    leaf_to_path,
    path_to_leaf,
    sibling_leaves,
    sibling_set_size,
    tree_distance,
    tree_distance_for_level,
    validate_path,
)


def paths(depth=4, branching=3):
    return st.tuples(*[st.integers(0, branching - 1)] * depth)


class TestValidatePath:
    def test_accepts_and_normalizes(self):
        assert validate_path([0, 1, 2], depth=3, branching=3) == (0, 1, 2)

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            validate_path((0, 1), depth=3, branching=2)

    def test_out_of_range_child(self):
        with pytest.raises(ValueError):
            validate_path((0, 2, 0), depth=3, branching=2)

    def test_negative_child(self):
        with pytest.raises(ValueError):
            validate_path((0, -1, 0), depth=3, branching=2)


class TestCommonPrefixAndLca:
    def test_identical(self):
        assert common_prefix_length((0, 1, 2), (0, 1, 2)) == 3
        assert lca_level((0, 1, 2), (0, 1, 2)) == 0

    def test_disjoint_at_root(self):
        assert lca_level((0, 0), (1, 0)) == 2

    def test_partial(self):
        assert common_prefix_length((0, 1, 0), (0, 1, 1)) == 2
        assert lca_level((0, 1, 0), (0, 1, 1)) == 1

    def test_depth_mismatch_rejected(self):
        with pytest.raises(ValueError):
            common_prefix_length((0,), (0, 1))

    @given(paths(), paths())
    def test_symmetry(self, a, b):
        assert lca_level(a, b) == lca_level(b, a)


class TestDistances:
    def test_edge_lengths(self):
        # the edge entering level i has length 2**(i+1) (paper Sec. III-B)
        assert [edge_length(i) for i in range(4)] == [2, 4, 8, 16]

    def test_edge_length_rejects_negative(self):
        with pytest.raises(ValueError):
            edge_length(-1)

    def test_level_distance_formula(self):
        # dT = 2**(l+2) - 4: 0, 4, 12, 28, 60 for l = 0..4 (paper Sec. III-C)
        assert [tree_distance_for_level(l) for l in range(5)] == [0, 4, 12, 28, 60]

    def test_level_distance_is_twice_path_to_lca(self):
        for level in range(1, 8):
            climb = sum(edge_length(i) for i in range(level))
            assert tree_distance_for_level(level) == 2 * climb

    def test_rejects_negative_level(self):
        with pytest.raises(ValueError):
            tree_distance_for_level(-1)

    @given(paths(), paths())
    def test_distance_symmetry(self, a, b):
        assert tree_distance(a, b) == tree_distance(b, a)

    @given(paths(), paths())
    def test_identity_of_indiscernibles(self, a, b):
        assert (tree_distance(a, b) == 0) == (a == b)

    @given(paths(), paths(), paths())
    def test_triangle_inequality(self, a, b, c):
        # tree metrics are ultrametric-like here: the LCA of (a, c) is at
        # least as deep as the shallower of (a, b) and (b, c)
        assert tree_distance(a, c) <= tree_distance(a, b) + tree_distance(b, c)

    @given(paths(depth=5, branching=2), paths(depth=5, branching=2))
    def test_strong_triangle(self, a, b):
        # ultrametric: d(a, c) <= max(d(a, b), d(b, c)) for any witness b
        c = b
        assert tree_distance(a, c) <= max(tree_distance(a, b), tree_distance(b, c))


class TestSiblingSets:
    def test_sizes(self):
        assert sibling_set_size(0, branching=2) == 1
        assert [sibling_set_size(i, 2) for i in (1, 2, 3, 4)] == [1, 2, 4, 8]
        assert [sibling_set_size(i, 3) for i in (1, 2, 3)] == [2, 6, 18]

    def test_sizes_partition_all_leaves(self):
        depth, branching = 4, 3
        total = sum(sibling_set_size(i, branching) for i in range(depth + 1))
        assert total == branching**depth

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            sibling_set_size(-1, 2)

    def test_sibling_leaves_enumeration(self):
        x = (0, 1, 0)
        for level in range(4):
            members = list(sibling_leaves(x, level, branching=2))
            assert len(members) == sibling_set_size(level, 2)
            for z in members:
                assert lca_level(x, z) == level

    def test_sibling_leaves_partition(self):
        x = (1, 0, 2)
        seen = set()
        for level in range(4):
            seen.update(sibling_leaves(x, level, branching=3))
        assert seen == set(enumerate_leaves(3, 3))

    def test_sibling_leaves_level_bounds(self):
        with pytest.raises(ValueError):
            list(sibling_leaves((0, 0), 3, branching=2))


class TestEnumerateLeaves:
    def test_count_and_uniqueness(self):
        leaves = list(enumerate_leaves(3, 2))
        assert len(leaves) == 8
        assert len(set(leaves)) == 8

    def test_lexicographic(self):
        leaves = list(enumerate_leaves(2, 2))
        assert leaves == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_unary_tree(self):
        assert list(enumerate_leaves(3, 1)) == [(0, 0, 0)]


class TestLeafIndex:
    def test_enumeration_order_is_index_order(self):
        # a leaf's index is its rank among the lexicographically ordered
        # leaves: the base-c reading of its path
        for rank, path in enumerate(enumerate_leaves(3, 3)):
            assert path_to_leaf(path, 3) == rank
            assert leaf_to_path(rank, 3, 3) == path

    @given(paths(depth=5, branching=4), paths(depth=5, branching=4))
    def test_lca_is_the_longest_common_integer_prefix(self, a, b):
        za, zb = path_to_leaf(a, 4), path_to_leaf(b, 4)
        level = lca_level(a, b)
        assert za // 4**level == zb // 4**level
        if level:
            assert za // 4 ** (level - 1) != zb // 4 ** (level - 1)

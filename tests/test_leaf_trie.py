"""Tests for repro.matching.leaf_trie."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hst.paths import lca_level, leaf_to_path, path_to_leaf, tree_distance
from repro.matching import LeafTrie
from repro.matching.leaf_trie import check_leaves


def leaf(c, *digits):
    """Leaf index of the path ``digits`` in a branching-``c`` tree."""
    return path_to_leaf(digits, c)


def brute_nearest(entries: dict, query, depth, c):
    """Reference implementation: scan all stored leaves."""
    q = leaf_to_path(query, depth, c)
    best = None
    for item, z in entries.items():
        d = tree_distance(leaf_to_path(z, depth, c), q)
        if best is None or d < best[1]:
            best = (item, d)
    return best


class TestBasics:
    def test_insert_and_len(self):
        trie = LeafTrie(depth=3, branching=2)
        trie.insert(leaf(2, 0, 0, 0), 1)
        trie.insert(leaf(2, 0, 1, 0), 2)
        assert len(trie) == 2
        assert 1 in trie and 3 not in trie

    def test_duplicate_item_rejected(self):
        trie = LeafTrie(3, 2)
        trie.insert(leaf(2, 0, 0, 0), 1)
        with pytest.raises(ValueError):
            trie.insert(leaf(2, 1, 0, 0), 1)

    def test_shared_leaf_allowed(self):
        trie = LeafTrie(3, 2)
        trie.insert(0, 1)
        trie.insert(0, 2)
        assert len(trie) == 2

    def test_path_of(self):
        trie = LeafTrie(3, 2)
        trie.insert(leaf(2, 0, 1, 1), 9)
        assert trie.leaf_of(9) == 3
        assert leaf_to_path(trie.leaf_of(9), 3, 2) == (0, 1, 1)

    def test_remove(self):
        trie = LeafTrie(3, 2)
        trie.insert(0, 1)
        trie.remove(1)
        assert len(trie) == 0
        assert trie.nearest(0) is None

    def test_remove_missing_raises(self):
        trie = LeafTrie(3, 2)
        with pytest.raises(KeyError):
            trie.remove(5)

    def test_bad_path_rejected(self):
        trie = LeafTrie(3, 2)
        assert trie.check(np.int64(7)) == 7
        for bad in (8, -1):
            with pytest.raises(ValueError):
                trie.check(bad)
        with pytest.raises(TypeError):
            trie.check((0, 0, 0))  # a tuple path is not a leaf index
        assert check_leaves(np.array([0, 7]), 3, 2) == [0, 7]
        with pytest.raises(ValueError):
            check_leaves([0, 8], 3, 2)
        with pytest.raises(TypeError):
            check_leaves([(0, 0, 0)], 3, 2)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            LeafTrie(0, 2)
        with pytest.raises(ValueError):
            LeafTrie(3, 0)


class TestNearest:
    def test_exact_leaf_wins(self):
        trie = LeafTrie(3, 2)
        trie.insert(leaf(2, 0, 0, 0), 1)
        trie.insert(leaf(2, 0, 0, 1), 2)
        item, level = trie.nearest(leaf(2, 0, 0, 1))
        assert (item, level) == (2, 0)

    def test_sibling_before_cousin(self):
        trie = LeafTrie(3, 2)
        trie.insert(leaf(2, 0, 1, 0), 1)  # level-2 relative of query
        trie.insert(leaf(2, 1, 0, 0), 2)  # level-3 relative of query
        item, level = trie.nearest(leaf(2, 0, 0, 0))
        assert (item, level) == (1, 2)

    def test_smallest_child_then_newest_insert(self):
        trie = LeafTrie(2, 4)
        trie.insert(leaf(4, 0, 3), 1)
        trie.insert(leaf(4, 0, 2), 2)
        trie.insert(leaf(4, 0, 2), 3)
        # children 2 and 3 tie at level 1: the smaller child, newest first
        assert trie.pop_nearest(leaf(4, 0, 0)) == (3, 1)
        assert trie.pop_nearest(leaf(4, 0, 0)) == (2, 1)
        assert trie.pop_nearest(leaf(4, 0, 0)) == (1, 1)

    def test_empty(self):
        assert LeafTrie(3, 2).nearest(0) is None

    def test_pop_nearest_consumes(self):
        trie = LeafTrie(2, 2)
        trie.insert(leaf(2, 0, 0), 1)
        trie.insert(leaf(2, 0, 1), 2)
        first = trie.pop_nearest(0)
        second = trie.pop_nearest(0)
        assert first == (1, 0)
        assert second == (2, 1)
        assert trie.pop_nearest(0) is None

    def test_pop_nearest_within(self):
        trie = LeafTrie(3, 2)
        trie.insert(leaf(2, 1, 0, 0), 1)  # level 3 from query: distance 28
        assert trie.pop_nearest_within(0, 27) is None
        assert len(trie) == 1
        assert trie.pop_nearest_within(0, 28) == (1, 3)
        assert len(trie) == 0


class TestIterCandidates:
    def test_levels_non_decreasing(self):
        rng = np.random.default_rng(0)
        trie = LeafTrie(4, 3)
        for item in range(30):
            trie.insert(int(rng.integers(0, 3**4)), item)
        query = int(rng.integers(0, 3**4))
        levels = [lvl for _, lvl in trie.iter_candidates(query)]
        assert levels == sorted(levels)
        assert len(levels) == 30

    def test_yields_every_item_once(self):
        rng = np.random.default_rng(1)
        trie = LeafTrie(5, 2)
        for item in range(40):
            trie.insert(int(rng.integers(0, 2**5)), item)
        seen = [item for item, _ in trie.iter_candidates(0)]
        assert sorted(seen) == list(range(40))

    def test_levels_are_true_lca_levels(self):
        rng = np.random.default_rng(2)
        trie = LeafTrie(4, 2)
        leaves = {}
        for item in range(20):
            z = int(rng.integers(0, 2**4))
            leaves[item] = z
            trie.insert(z, item)
        query = leaf(2, 0, 1, 0, 1)
        for item, level in trie.iter_candidates(query):
            d = tree_distance(leaf_to_path(leaves[item], 4, 2), (0, 1, 0, 1))
            assert d == (0 if level == 0 else 2 ** (level + 2) - 4)


@settings(max_examples=40, deadline=None)
@given(
    data=st.lists(st.integers(0, 26), min_size=1, max_size=20),
    query=st.integers(0, 26),
)
def test_property_nearest_matches_bruteforce(data, query):
    trie = LeafTrie(3, 3)
    entries = {}
    for item, z in enumerate(data):
        trie.insert(z, item)
        entries[item] = z
    item, level = trie.nearest(query)
    _, best_distance = brute_nearest(entries, query, 3, 3)
    got = 0 if level == 0 else 2 ** (level + 2) - 4
    assert got == best_distance


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 30),
)
def test_property_interleaved_updates_stay_consistent(seed, n):
    """Random insert/remove/pop sequences keep counts and queries coherent."""
    rng = np.random.default_rng(seed)
    trie = LeafTrie(4, 2)
    alive = {}
    next_id = 0
    for _ in range(n * 3):
        op = rng.random()
        if op < 0.5 or not alive:
            z = int(rng.integers(0, 2**4))
            trie.insert(z, next_id)
            alive[next_id] = z
            next_id += 1
        elif op < 0.75:
            victim = int(rng.choice(list(alive)))
            trie.remove(victim)
            del alive[victim]
        else:
            query = int(rng.integers(0, 2**4))
            found = trie.pop_nearest(query)
            if alive:
                assert found is not None
                item, level = found
                expected = brute_nearest(alive, query, 4, 2)[1]
                got = 0 if level == 0 else 2 ** (level + 2) - 4
                assert got == expected
                del alive[item]
            else:
                assert found is None
        assert len(trie) == len(alive)


def _documented_order(alive: dict, query: int, depth: int, c: int) -> list:
    """Every live item in the documented order, by brute force: deepest
    LCA first, then the smallest child index at each level down (which is
    ascending leaf index, a path's base-c reading), then newest insert."""
    q = leaf_to_path(query, depth, c)
    return sorted(
        alive,
        key=lambda item: (
            lca_level(q, leaf_to_path(alive[item][0], depth, c)),
            alive[item][0],
            -alive[item][1],
        ),
    )


@settings(max_examples=60, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 9), st.integers(1, 22)).filter(
        lambda s: s[1] ** s[0] < 2**63
    ),
    data=st.data(),
)
def test_property_tie_break_matches_bruteforce_order(shape, data):
    """Random insert/remove/pop_nearest sequences on trees up to depth 9
    and branching 22: ``nearest`` and the full ``iter_candidates`` order
    equal a brute-force sort under the documented tie-break."""
    depth, c = shape
    n_leaves = c**depth
    # a small pool of leaves so that ties at every level are common
    pool = data.draw(
        st.lists(st.integers(0, n_leaves - 1), min_size=1, max_size=12)
    )
    leaf_st = st.one_of(st.sampled_from(pool), st.integers(0, n_leaves - 1))
    trie = LeafTrie(depth, c)
    alive: dict[int, tuple[int, int]] = {}  # item -> (leaf, insert seq)
    seq = 0
    for _ in range(data.draw(st.integers(1, 40))):
        op = data.draw(st.sampled_from(["insert", "insert", "remove", "pop", "iter"]))
        if op == "insert" or not alive:
            z = data.draw(leaf_st)
            trie.insert(z, seq)
            alive[seq] = (z, seq)
            seq += 1
        elif op == "remove":
            victim = data.draw(st.sampled_from(sorted(alive)))
            trie.remove(victim)
            del alive[victim]
        else:
            query = data.draw(leaf_st)
            order = _documented_order(alive, query, depth, c)
            q = leaf_to_path(query, depth, c)
            levels = [
                lca_level(q, leaf_to_path(alive[item][0], depth, c)) for item in order
            ]
            if op == "iter":
                assert list(trie.iter_candidates(query)) == list(zip(order, levels))
            assert trie.nearest(query) == (order[0], levels[0])
            if op == "pop":
                assert trie.pop_nearest(query) == (order[0], levels[0])
                del alive[order[0]]
        assert len(trie) == len(alive)

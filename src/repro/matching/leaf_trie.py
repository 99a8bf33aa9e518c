"""A bitmask trie over HST leaf indices.

This is the data structure that makes HST-Greedy (paper Algorithm 4) fast:
``nearest available worker on the tree`` is ``worker whose leaf shares the
longest path prefix with the task's leaf``. Leaves are leaf indices (a
path read as base-``c`` digits, see :mod:`repro.hst.paths`), so the
ancestor of leaf ``z`` at depth ``d`` is the integer prefix
``z // c**(D-d)``. Each live internal node is keyed by (depth, prefix) and
holds a bitmask of its live children; items sit in per-leaf buckets.
That gives

* ``insert`` / ``remove`` in O(D) integer operations,
* ``nearest`` in O(D): climb from the task's leaf to the first ancestor
  with a live child other than the task's own, then descend by lowest set
  bits,
* lazy enumeration of *all* items in non-decreasing tree distance
  (:meth:`iter_candidates`) for the reachability-constrained variant,

compared to the O(n) per task of the paper's naive scan (their stated
complexity is O(D n m); see ``benchmarks/bench_ablation_trie.py``).

Ties (several items equally close on the tree) are broken deterministically
by descending into the smallest live child index and taking the most recently
inserted item at a leaf — the paper allows arbitrary tie-breaking.

The trie trusts its leaves: callers validate leaf indices once, where they
come from outside (matcher construction, snapshot restore).
"""

from __future__ import annotations

import operator
from collections.abc import Iterator

from ..hst.paths import tree_distance_for_level

__all__ = ["LeafTrie", "check_leaves"]


def check_leaves(leaves, depth: int, branching: int) -> list[int]:
    """Leaf indices as a list of Python ints, each checked to lie in
    ``[0, c**D)``; raises ``ValueError`` otherwise."""
    out = [operator.index(v) for v in leaves]
    if out and (min(out) < 0 or max(out) >= branching**depth):
        bad = next(v for v in out if not 0 <= v < branching**depth)
        raise ValueError(f"leaf {bad} outside [0, {branching**depth})")
    return out


class LeafTrie:
    """Multiset of (item id, leaf index) with nearest-on-tree queries."""

    def __init__(self, depth: int, branching: int) -> None:
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        if branching < 1:
            raise ValueError(f"branching must be >= 1, got {branching}")
        self.depth = depth
        self.branching = branching
        self.num_leaves = branching**depth
        # _masks[d][prefix]: bitmask of the live children of the depth-d
        # node ``prefix``; a node is live (present) iff its mask is nonzero
        self._masks: list[dict[int, int]] = [{} for _ in range(depth)]
        self._buckets: dict[int, list[int]] = {}
        self._leaves: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._leaves)

    def __contains__(self, item: int) -> bool:
        return item in self._leaves

    def check(self, leaf) -> int:
        """``leaf`` as a Python int, checked to lie in ``[0, c**D)``: the
        one-comparison guard matchers apply to a task's leaf."""
        leaf = operator.index(leaf)
        if not 0 <= leaf < self.num_leaves:
            raise ValueError(f"leaf {leaf} outside [0, {self.num_leaves})")
        return leaf

    def leaf_of(self, item: int) -> int:
        """Leaf index under which ``item`` is stored."""
        return self._leaves[item]

    def items(self) -> list[int]:
        """All stored item ids, in no particular order."""
        return list(self._leaves)

    # ------------------------------------------------------------------ #
    # updates                                                             #
    # ------------------------------------------------------------------ #

    def insert(self, leaf: int, item: int) -> None:
        """Add ``item`` at ``leaf``. Item ids must be unique."""
        if item in self._leaves:
            raise ValueError(f"item {item} already present")
        self._leaves[item] = leaf
        bucket = self._buckets.get(leaf)
        if bucket is not None:
            bucket.append(item)
            return
        self._buckets[leaf] = [item]
        # a new live leaf: set its bit in each ancestor, stopping at the
        # first ancestor that was already live
        c = self.branching
        prefix = leaf
        for masks in reversed(self._masks):
            prefix, digit = divmod(prefix, c)
            mask = masks.get(prefix, 0)
            masks[prefix] = mask | (1 << digit)
            if mask:
                return

    def remove(self, item: int) -> None:
        """Remove a previously inserted item."""
        leaf = self._leaves.pop(item, None)
        if leaf is None:
            raise KeyError(f"item {item} not present")
        bucket = self._buckets[leaf]
        if len(bucket) > 1:
            bucket.remove(item)
            return
        del self._buckets[leaf]
        # the leaf died: clear its bit in each ancestor, pruning ancestors
        # left without a live child
        c = self.branching
        prefix = leaf
        for masks in reversed(self._masks):
            prefix, digit = divmod(prefix, c)
            mask = masks[prefix] & ~(1 << digit)
            if mask:
                masks[prefix] = mask
                return
            del masks[prefix]

    # ------------------------------------------------------------------ #
    # queries                                                             #
    # ------------------------------------------------------------------ #

    def iter_candidates(self, leaf: int) -> Iterator[tuple[int, int]]:
        """Yield ``(item, lca_level)`` in non-decreasing tree distance.

        All stored items are eventually yielded; items at LCA level ``l``
        are at tree distance ``2**(l+2) - 4`` from ``leaf``. Within a
        level, subtrees come in ascending child order, depth first, and a
        leaf's items newest first.
        """
        bucket = self._buckets.get(leaf)
        if bucket:
            for item in bucket[::-1]:
                yield item, 0
        c, depth = self.branching, self.depth
        prefix = leaf
        for level in range(1, depth + 1):
            prefix, own = divmod(prefix, c)
            mask = self._masks[depth - level].get(prefix, 0) & ~(1 << own)
            while mask:
                low = mask & -mask
                mask ^= low
                child = prefix * c + low.bit_length() - 1
                yield from self._iter_subtree(depth - level + 1, child, level)

    def nearest(self, leaf: int) -> tuple[int, int] | None:
        """Closest item on the tree, as ``(item, lca_level)``; ``None`` if empty.

        The task's own leaf bucket first; failing that, the first ancestor
        (climbing from depth ``D-1``) with a live child other than the
        task's own, its lowest such child, then lowest set bits down to a
        leaf whose newest item is returned — the first item
        :meth:`iter_candidates` would yield.
        """
        bucket = self._buckets.get(leaf)
        if bucket:
            return bucket[-1], 0
        c, depth, all_masks = self.branching, self.depth, self._masks
        prefix = leaf
        for level in range(1, depth + 1):
            prefix, own = divmod(prefix, c)
            mask = all_masks[depth - level].get(prefix, 0) & ~(1 << own)
            if mask:
                node = prefix * c + (mask & -mask).bit_length() - 1
                for masks in all_masks[depth - level + 1 :]:
                    mask = masks[node]
                    node = node * c + (mask & -mask).bit_length() - 1
                return self._buckets[node][-1], level
        return None

    def pop_nearest(self, leaf: int) -> tuple[int, int] | None:
        """Remove and return the closest item (Algorithm 4's inner step)."""
        found = self.nearest(leaf)
        if found is not None:
            self.remove(found[0])
        return found

    def pop_nearest_within(
        self, leaf: int, max_tree_distance: float
    ) -> tuple[int, int] | None:
        """Closest item at tree distance <= ``max_tree_distance``, removed.

        Used by the matching-size case study where the server filters by a
        (tree-unit) reachability radius.
        """
        found = self.nearest(leaf)
        if found is None:
            return None
        item, level = found
        if tree_distance_for_level(level) > max_tree_distance:
            return None
        self.remove(item)
        return found

    # ------------------------------------------------------------------ #
    # internals                                                           #
    # ------------------------------------------------------------------ #

    def _iter_subtree(
        self, depth: int, prefix: int, level: int
    ) -> Iterator[tuple[int, int]]:
        """DFS over the live leaves below the depth-``depth`` node
        ``prefix``, smallest child first, yielding ``(item, level)``."""
        c, leaf_depth = self.branching, self.depth
        stack = [(depth, prefix)]
        while stack:
            d, node = stack.pop()
            if d == leaf_depth:
                for item in self._buckets.get(node, ())[::-1]:
                    yield item, level
                continue
            mask = self._masks[d].get(node, 0)
            children = []
            while mask:
                low = mask & -mask
                mask ^= low
                children.append((d + 1, node * c + low.bit_length() - 1))
            # reversed so the smallest child index is explored first
            stack.extend(reversed(children))

"""HST-Greedy online matching (paper Algorithm 4).

Each arriving task is assigned to the available worker whose (obfuscated)
leaf is closest *on the tree*; the worker is then consumed. The paper's
pseudocode scans all workers per task (O(D n) per assignment); we use the
:class:`~repro.matching.leaf_trie.LeafTrie` to do it in O(D) without
changing the algorithm's decisions (same distance ordering; ties broken
arbitrarily in both). Leaves are leaf indices, the base-``c`` reading of
a leaf path (:meth:`~repro.hst.tree.HST.leaf_of_path` converts a path).

Two variants are provided:

* :class:`HSTGreedyMatcher` — the minimum-total-distance objective of the
  main experiments (Figs. 6-7).
* :meth:`HSTGreedyMatcher.assign_reachable` — the matching-size case study
  (Fig. 8): the server only accepts a worker whose *tree* distance is
  within the worker's (stretch-adjusted) reachable radius.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..hst.paths import tree_distance_for_level
from .leaf_trie import LeafTrie, check_leaves

__all__ = ["HSTGreedyMatcher", "max_level_within"]


def max_level_within(max_tree_distance: float) -> int:
    """Largest LCA level whose tree distance fits in ``max_tree_distance``.

    Returns -1 when even level 0 (distance 0) exceeds the bound, i.e. the
    bound is negative.
    """
    if max_tree_distance < 0:
        return -1
    level = 0
    while tree_distance_for_level(level + 1) <= max_tree_distance:
        level += 1
    return level


class HSTGreedyMatcher:
    """Online greedy matching on obfuscated HST leaves (Algorithm 4).

    Parameters
    ----------
    depth, branching:
        Shape of the complete HST the leaves live in.
    worker_leaves:
        Obfuscated leaf index of every registered worker; worker ids are
        the positions in this sequence.
    """

    def __init__(
        self, depth: int, branching: int, worker_leaves: Sequence[int]
    ) -> None:
        self._trie = LeafTrie(depth, branching)
        # dense slot -> leaf column: the trie indexes availability, the
        # column is the record of every slot ever admitted (release reads
        # leaves from here). Grown geometrically by add_workers.
        self._slot_leaves = np.zeros(8, dtype=np.int64)
        self._next_slot = 0
        self.add_workers(worker_leaves)

    @classmethod
    def for_tree(cls, tree, worker_leaves: Sequence[int]) -> "HSTGreedyMatcher":
        """Build a matcher sized for an :class:`~repro.hst.tree.HST`."""
        return cls(tree.depth, tree.branching, worker_leaves)

    @property
    def available(self) -> int:
        """Number of workers not yet consumed."""
        return len(self._trie)

    def remove_worker(self, slot: int) -> None:
        """Consume a specific worker slot without an assignment.

        Used when replaying consumed slots during a snapshot restore;
        raises ``KeyError`` if the slot is not available.
        """
        self._trie.remove(slot)

    def add_workers(self, leaves: Sequence[int]) -> int:
        """Admit workers that arrived after construction; returns the
        first new slot id (slots continue the constructor's numbering).

        The paper's OMBM model fixes the worker set up front; the serving
        layer (:mod:`repro.service`) relaxes that to streaming worker
        arrivals, which only requires inserting fresh leaves into the trie.
        """
        trie = self._trie
        return self._admit(check_leaves(leaves, trie.depth, trie.branching))

    def _admit(self, leaves: list[int]) -> int:
        """:meth:`add_workers` on leaves already checked by
        :func:`~repro.matching.leaf_trie.check_leaves` (a caller that
        validated them once, like
        :meth:`~repro.crowdsourcing.server.MatchingServer.register_cohort`)."""
        first = self._next_slot
        end = first + len(leaves)
        if end > len(self._slot_leaves):
            grown = np.zeros(max(end, 2 * len(self._slot_leaves)), dtype=np.int64)
            grown[:first] = self._slot_leaves[:first]
            self._slot_leaves = grown
        self._slot_leaves[first:end] = leaves
        insert = self._trie.insert
        for slot, leaf in enumerate(leaves, first):
            insert(leaf, slot)
        self._next_slot = end
        return first

    def slot_leaf(self, slot: int) -> int:
        """Leaf a slot was admitted under (consumed slots included)."""
        if not 0 <= slot < self._next_slot:
            raise IndexError(f"slot {slot} outside [0, {self._next_slot})")
        return int(self._slot_leaves[slot])

    def assign(self, task_leaf: int) -> tuple[int, int] | None:
        """Assign the nearest available worker to the task's leaf.

        Returns ``(worker_id, lca_level)`` and consumes the worker, or
        ``None`` when no workers remain.
        """
        return self._trie.pop_nearest(self._trie.check(task_leaf))

    def assign_reachable(
        self, task_leaf: int, radius_tree_units
    ) -> tuple[int, int] | None:
        """Assign the nearest available worker that *looks* reachable.

        ``radius_tree_units`` is either a scalar (uniform radius) or a
        per-worker sequence indexed by worker id, expressed in tree units.
        Scans workers in non-decreasing tree distance and takes the first
        whose own radius covers the distance; consumes it. Returns ``None``
        (task stays unassigned) if no available worker qualifies.
        """
        per_worker = not _is_scalar(radius_tree_units)
        for worker_id, level in self._trie.iter_candidates(self._trie.check(task_leaf)):
            limit = (
                radius_tree_units[worker_id] if per_worker else radius_tree_units
            )
            if tree_distance_for_level(level) <= limit:
                self._trie.remove(worker_id)
                return worker_id, level
        return None

    def assign_reachable_preferring_radius(
        self, task_leaf: int, radii_tree_units, radii
    ) -> tuple[int, int] | None:
        """Budget-filtered assignment with a radius-aware tie-break.

        Like :meth:`assign_reachable`, but among the workers tied at the
        nearest feasible tree distance it proposes the one with the largest
        *true* reachable radius — same tree distance (still "the nearest
        reachable worker on the HST"), strictly higher success odds when a
        proposal is judged on true locations. Falls back to the largest-
        radius worker at the nearest level when nobody passes the budget
        filter (a failed proposal costs nothing when failures release the
        worker).
        """
        best_pass: tuple[float, int, int] | None = None  # (radius, id, level)
        fallback: tuple[float, int, int] | None = None  # best at nearest level
        nearest_level: int | None = None
        for worker_id, level in self._trie.iter_candidates(self._trie.check(task_leaf)):
            if nearest_level is None:
                nearest_level = level
            if level != nearest_level and best_pass is not None:
                break  # passes at the nearest feasible level are collected
            radius = float(radii[worker_id])
            if level == nearest_level and (
                fallback is None or radius > fallback[0]
            ):
                fallback = (radius, worker_id, level)
            if tree_distance_for_level(level) <= radii_tree_units[worker_id]:
                if best_pass is None or (
                    level == best_pass[2] and radius > best_pass[0]
                ):
                    best_pass = (radius, worker_id, level)
        chosen = best_pass if best_pass is not None else fallback
        if chosen is None:
            return None
        _, worker_id, level = chosen
        self._trie.remove(worker_id)
        return worker_id, level

    def release(self, worker_id: int) -> None:
        """Return a previously consumed worker to the pool, under the leaf
        its slot was admitted with.

        Used by the case-study semantics where a failed assignment leaves
        the worker available.
        """
        self._trie.insert(self.slot_leaf(worker_id), worker_id)


def _is_scalar(value) -> bool:
    try:
        len(value)
    except TypeError:
        return True
    return False

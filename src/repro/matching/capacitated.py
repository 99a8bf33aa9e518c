"""Capacitated HST-Greedy: workers that serve more than one task.

The paper's OMBM model consumes a worker on first assignment. Practical
platforms let couriers batch orders; the paper's own reference line on
"flexible online task assignment" (Tong et al., PVLDB'17) studies exactly
that. This extension gives each worker an integer capacity and keeps it
matchable until the capacity is exhausted, preserving Algorithm 4's
nearest-on-tree rule for every individual assignment.

With all capacities equal to 1 this reduces exactly to
:class:`~repro.matching.hst_greedy.HSTGreedyMatcher` (tested).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .leaf_trie import LeafTrie, check_leaves

__all__ = ["CapacitatedHSTGreedyMatcher"]


class CapacitatedHSTGreedyMatcher:
    """Nearest-on-tree assignment with per-worker capacities.

    Parameters
    ----------
    depth, branching:
        Shape of the complete HST the leaves live in.
    worker_leaves:
        Obfuscated leaf index per worker; ids are positions.
    capacities:
        Integer capacity per worker (scalar broadcasts). A worker stays in
        the pool until it has been assigned ``capacity`` tasks.
    """

    def __init__(
        self,
        depth: int,
        branching: int,
        worker_leaves: Sequence[int],
        capacities=1,
    ) -> None:
        self._leaves = check_leaves(worker_leaves, depth, branching)
        n = len(self._leaves)
        caps = np.broadcast_to(
            np.asarray(capacities, dtype=np.int64), (n,)
        ).copy()
        if np.any(caps < 0):
            raise ValueError("capacities must be non-negative")
        self._capacity = caps
        self._remaining = caps.copy()
        self._trie = LeafTrie(depth, branching)
        for worker_id, leaf in enumerate(self._leaves):
            if caps[worker_id] > 0:
                self._trie.insert(leaf, worker_id)

    @property
    def available(self) -> int:
        """Workers with remaining capacity."""
        return len(self._trie)

    @property
    def remaining_capacity(self) -> int:
        """Total assignments the pool can still absorb."""
        return int(self._remaining.sum())

    def remaining_of(self, worker_id: int) -> int:
        """Remaining capacity of one worker."""
        return int(self._remaining[worker_id])

    def assign(self, task_leaf: int) -> tuple[int, int] | None:
        """Assign the nearest worker with spare capacity; decrement it.

        Returns ``(worker_id, lca_level)`` or ``None`` when the pool's
        total capacity is exhausted.
        """
        found = self._trie.nearest(self._trie.check(task_leaf))
        if found is None:
            return None
        worker_id, level = found
        self._remaining[worker_id] -= 1
        if self._remaining[worker_id] == 0:
            self._trie.remove(worker_id)
        return worker_id, level

    def release(self, worker_id: int) -> None:
        """Undo one assignment of ``worker_id`` (capacity returns).

        Raises ``ValueError`` when the worker has no assignment
        outstanding: a release never lifts a worker above its initial
        capacity.
        """
        if self._remaining[worker_id] >= self._capacity[worker_id]:
            raise ValueError(
                f"worker {worker_id} has no outstanding assignment to release"
            )
        self._remaining[worker_id] += 1
        if worker_id not in self._trie:
            self._trie.insert(self._leaves[worker_id], worker_id)

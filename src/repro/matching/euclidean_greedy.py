"""Online greedy matching in the Euclidean plane (the paper's ``greedy``).

This is the assignment half of the Lap-GR baseline: each arriving task is
matched to the closest *available* worker by Euclidean distance between the
reported (noisy) locations. Tong et al. (PVLDB 2016) showed this simple
heuristic is strong in practice, which is why the paper adopts it.

The paper's implementation scans all workers per task (O(n) each,
O(n m) total). We keep exactly the same decisions but accelerate the scan
with a static KD-tree over worker locations and an expanding
k-nearest-neighbour probe that skips already-consumed workers; an optional
``naive=True`` switch retains the literal scan for cross-checking.
"""

from __future__ import annotations

import numpy as np

from ..geometry.points import as_point, as_points

__all__ = ["EuclideanGreedyMatcher"]


class EuclideanGreedyMatcher:
    """Greedy online matcher over reported worker coordinates.

    Parameters
    ----------
    worker_locations:
        ``(n, 2)`` reported (noisy) worker locations; worker ids are row
        indices.
    naive:
        When ``True``, use the literal O(n)-per-task scan of the paper
        instead of the KD-tree probe. Decisions are identical up to ties.
    """

    def __init__(self, worker_locations, naive: bool = False) -> None:
        self._locations = as_points(worker_locations)
        self._available = np.ones(len(self._locations), dtype=bool)
        self._n_available = len(self._locations)
        self._naive = naive
        self._tree = None
        if not naive and len(self._locations):
            from scipy.spatial import cKDTree

            self._tree = cKDTree(self._locations)

    @property
    def available(self) -> int:
        """Number of workers not yet consumed."""
        return self._n_available

    def assign(self, task_location) -> tuple[int, float] | None:
        """Assign the closest available worker to the reported task location.

        Returns ``(worker_id, reported_distance)`` and consumes the worker,
        or ``None`` when no workers remain. The reported distance is between
        the *noisy* coordinates — the matcher never sees true locations.
        """
        if self._n_available == 0:
            return None
        loc = as_point(task_location)
        if self._naive:
            worker, dist = self._scan(loc)
        else:
            worker, dist = self._probe(loc)
        self._available[worker] = False
        self._n_available -= 1
        return worker, dist

    def assign_within(self, task_location, radius: float) -> tuple[int, float] | None:
        """Like :meth:`assign` but only if the nearest worker is within
        ``radius`` of the reported task location; otherwise leaves the pool
        untouched and returns ``None``."""
        if self._n_available == 0:
            return None
        loc = as_point(task_location)
        worker, dist = self._scan(loc) if self._naive else self._probe(loc)
        if dist > radius:
            return None
        self._available[worker] = False
        self._n_available -= 1
        return worker, dist

    def release(self, worker_id: int) -> None:
        """Return a previously consumed worker to the pool."""
        if self._available[worker_id]:
            raise ValueError(f"worker {worker_id} is not consumed")
        self._available[worker_id] = True
        self._n_available += 1

    # ------------------------------------------------------------------ #
    # internals                                                           #
    # ------------------------------------------------------------------ #

    def _scan(self, loc: np.ndarray) -> tuple[int, float]:
        diffs = self._locations[self._available] - loc
        dists = np.hypot(diffs[:, 0], diffs[:, 1])
        pos = int(np.argmin(dists))
        worker = int(np.flatnonzero(self._available)[pos])
        return worker, float(dists[pos])

    def _probe(self, loc: np.ndarray) -> tuple[int, float]:
        """Expanding k-NN probe: query 1, 2, 4, ... neighbours until one is
        still available. Bounded by the pool size, so always terminates."""
        n = len(self._locations)
        k = 1
        while True:
            k = min(k, n)
            dists, idx = self._tree.query(loc, k=k)
            if k == 1:
                dists, idx = np.array([dists]), np.array([idx])
            for d, i in zip(dists, idx):
                if i < n and self._available[i]:
                    return int(i), float(d)
            if k == n:  # pragma: no cover - pool exhausted is caught earlier
                raise AssertionError("no available worker found")
            k *= 2

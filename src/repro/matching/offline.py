"""Offline optimal minimum bipartite matching.

The competitive ratio (paper Definition 8) compares an online algorithm's
expected total distance against ``MOPT``: the minimum-total-distance
matching when all tasks and workers are known in advance. This module
computes ``MOPT`` exactly with the Hungarian algorithm
(:func:`scipy.optimize.linear_sum_assignment`), which handles rectangular
instances (more workers than tasks) directly.

This is not part of any compared algorithm — it is the yardstick used by
the competitive-ratio ablation (``bench_ablation_competitive.py``) and by
tests of the online matchers.
"""

from __future__ import annotations

import numpy as np

from ..geometry.points import as_points
from .types import MatchingResult

__all__ = ["optimal_matching", "optimal_total_distance"]

#: Dense-cost-matrix guard: n*m above this raises rather than thrashing.
MAX_COST_CELLS = 50_000_000


def optimal_matching(task_locations, worker_locations) -> MatchingResult:
    """Minimum-total-distance offline matching of all tasks to workers.

    Every task is matched when ``len(workers) >= len(tasks)``; otherwise the
    cheapest ``len(workers)`` tasks are matched and the rest are reported
    unassigned (matching the OMBM definition of maximal matching).
    """
    tasks = as_points(task_locations)
    workers = as_points(worker_locations)
    n_t, n_w = len(tasks), len(workers)
    if n_t == 0 or n_w == 0:
        return MatchingResult(unassigned_tasks=list(range(n_t)))
    if n_t * n_w > MAX_COST_CELLS:
        raise ValueError(
            f"instance too large for dense Hungarian: {n_t} x {n_w} cells"
        )
    from scipy.optimize import linear_sum_assignment

    diff = tasks[:, None, :] - workers[None, :, :]
    cost = np.hypot(diff[..., 0], diff[..., 1])
    rows, cols = linear_sum_assignment(cost)
    result = MatchingResult.from_pairs(
        zip(rows.tolist(), cols.tolist()), tasks, workers
    )
    matched = set(rows.tolist())
    result.unassigned_tasks = [t for t in range(n_t) if t not in matched]
    return result


def optimal_total_distance(task_locations, worker_locations) -> float:
    """Total distance of the offline optimal matching (``d(MOPT)``)."""
    return optimal_matching(task_locations, worker_locations).total_distance

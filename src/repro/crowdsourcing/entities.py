"""The three parties of the interaction model (paper Definitions 1-3).

Workers and tasks are coordinate carriers; the server is deliberately blind:
it can only be handed *reports* (obfuscated leaf indices or noisy
coordinates), never true locations. The type layer below enforces that
separation so a pipeline cannot accidentally leak true coordinates into a
matcher — the matching server accepts :class:`WorkerReport` /
:class:`TaskReport` payloads (or a cohort's worker-id and leaf-index
columns) only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geometry.points import as_point

__all__ = ["Worker", "Task", "WorkerReport", "TaskReport"]


@dataclass(frozen=True)
class Worker:
    """A crowd worker: an id, a true location and (for the matching-size
    case study) a reachable distance."""

    worker_id: int
    location: np.ndarray
    reachable_distance: float = float("inf")

    def __post_init__(self) -> None:
        object.__setattr__(self, "location", as_point(self.location))
        if self.reachable_distance < 0:
            raise ValueError("reachable distance must be non-negative")

    def can_reach(self, task: "Task") -> bool:
        """Whether this worker's true location is within its reachable
        distance of the task's true location."""
        d = float(np.hypot(*(self.location - task.location)))
        return d <= self.reachable_distance


@dataclass(frozen=True)
class Task:
    """A spatial task: an id and a true location."""

    task_id: int
    location: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "location", as_point(self.location))


@dataclass(frozen=True)
class WorkerReport:
    """What a worker actually sends to the untrusted server.

    Exactly one of ``leaf`` (tree mechanisms: the obfuscated leaf's index,
    see :attr:`~repro.hst.tree.HST.leaf_index`) or ``noisy_location``
    (Laplace mechanisms) is set; the true location never appears here.
    """

    worker_id: int
    leaf: int | None = None
    noisy_location: np.ndarray | None = None
    reachable_distance: float = float("inf")

    def __post_init__(self) -> None:
        if (self.leaf is None) == (self.noisy_location is None):
            raise ValueError("a report carries exactly one location encoding")


@dataclass(frozen=True)
class TaskReport:
    """What a task submission actually sends to the untrusted server:
    an obfuscated leaf index or a noisy location, never the true one."""

    task_id: int
    leaf: int | None = None
    noisy_location: np.ndarray | None = None

    def __post_init__(self) -> None:
        if (self.leaf is None) == (self.noisy_location is None):
            raise ValueError("a report carries exactly one location encoding")

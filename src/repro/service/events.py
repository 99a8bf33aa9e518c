"""Timed worker/task events.

The serving model is event-driven: a load generator (or a real gateway)
produces a time-ordered stream of :class:`WorkerArrival` and
:class:`TaskArrival` events (:func:`merge_event_streams`), which
:func:`~repro.api.client.requests_from_events` turns into API
requests; the engine advances its simulation clock to each event's
timestamp. Workers sort before tasks at equal timestamps so a cohort
that arrives "just in time" is matchable by the task that follows it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geometry.points import as_point

__all__ = ["WorkerArrival", "TaskArrival", "merge_event_streams"]


@dataclass(frozen=True)
class WorkerArrival:
    """A worker coming online at ``time`` at a true location.

    The true location never crosses the server boundary: the engine hands
    it to the *client-side* encoder of the worker's shard, and only the
    obfuscated report reaches the shard's matching server.
    """

    time: float
    worker_id: int
    location: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "location", as_point(self.location))


@dataclass(frozen=True)
class TaskArrival:
    """A task requested at ``time`` at a true location."""

    time: float
    task_id: int
    location: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "location", as_point(self.location))


def _sort_key(event) -> tuple[float, int]:
    # workers (kind 0) before tasks (kind 1) at equal timestamps
    return (event.time, 0 if isinstance(event, WorkerArrival) else 1)


def merge_event_streams(*streams) -> list:
    """Merge event iterables into one time-ordered list.

    A stable sort on ``(time, kind)``: ties keep generator order, and a
    worker arriving at the same instant as a task is registered first.
    """
    merged = [e for stream in streams for e in stream]
    merged.sort(key=_sort_key)
    return merged

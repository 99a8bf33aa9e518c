"""Event-driven fleet simulation: dynamic workers and budgeted re-reports.

The paper's OMBM model consumes a worker permanently on assignment. Real
fleets recycle: a driver finishes a ride and comes back online *at the
drop-off location*, which requires a **fresh obfuscated report** — and
under sequential composition every report spends privacy budget. This
module extends the reproduction with that dynamic model:

* tasks arrive on a Poisson clock (:func:`poisson_arrivals`);
* a :class:`DynamicFleet` holds per-worker state (free/busy, current
  obfuscated leaf, cumulative ε spent via a
  :class:`~repro.privacy.budget.PrivacyBudgetLedger`);
* :class:`FleetSimulator` replays the stream: at each arrival it frees
  workers whose rides completed, matches the task with HST-Greedy on the
  current obfuscated leaves, moves the worker to the task site, and
  re-reports when the worker's budget allows — workers whose budget is
  exhausted keep their last reported leaf (stale but free, the standard
  composition-aware policy).

This is an extension beyond the paper (its evaluation is single-shot);
everything here runs on the paper's mechanism and matcher unchanged.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from ..geometry.points import as_points
from ..hst.paths import path_to_leaf
from ..hst.tree import HST
from ..matching.leaf_trie import LeafTrie
from ..privacy.budget import PrivacyBudgetLedger
from ..privacy.tree_mechanism import TreeMechanism
from ..utils import ensure_rng

__all__ = ["poisson_arrivals", "RideRecord", "FleetTrace", "FleetSimulator"]


def poisson_arrivals(
    rate: float, horizon: float, seed=None
) -> np.ndarray:
    """Arrival times of a homogeneous Poisson process on ``[0, horizon)``."""
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    rng = ensure_rng(seed)
    times = []
    t = 0.0
    while True:
        t += rng.exponential(1.0 / rate)
        if t >= horizon:
            break
        times.append(t)
    return np.asarray(times)


@dataclass(frozen=True)
class RideRecord:
    """One served (or dropped) request in a fleet trace."""

    task_id: int
    arrival_time: float
    worker: int | None
    pickup_distance: float = float("nan")
    completion_time: float = float("nan")

    @property
    def served(self) -> bool:
        return self.worker is not None


@dataclass
class FleetTrace:
    """Aggregate outcome of a fleet simulation."""

    records: list[RideRecord] = field(default_factory=list)
    reports_sent: int = 0
    reports_suppressed: int = 0

    @property
    def served(self) -> int:
        return sum(1 for r in self.records if r.served)

    @property
    def dropped(self) -> int:
        return len(self.records) - self.served

    @property
    def total_pickup_distance(self) -> float:
        return float(
            sum(r.pickup_distance for r in self.records if r.served)
        )

    @property
    def mean_pickup_distance(self) -> float:
        served = [r.pickup_distance for r in self.records if r.served]
        return float(np.mean(served)) if served else float("nan")


class FleetSimulator:
    """Replay a timed task stream against a recycling worker fleet.

    Parameters
    ----------
    tree, mechanism:
        The published HST and the ε-Geo-I mechanism (per report).
    worker_locations:
        Initial true worker coordinates.
    speed:
        Travel speed in coordinate units per time unit (pickup time =
        distance / speed).
    service_time:
        Fixed on-task duration added after pickup.
    budget_capacity:
        Total ε each worker may spend across reports; the initial
        registration spends one mechanism-ε, every relocation re-report
        another. ``None`` disables accounting (infinite budget).
    """

    def __init__(
        self,
        tree: HST,
        mechanism: TreeMechanism,
        worker_locations,
        speed: float = 10.0,
        service_time: float = 1.0,
        budget_capacity: float | None = None,
    ) -> None:
        if speed <= 0:
            raise ValueError(f"speed must be positive, got {speed}")
        if service_time < 0:
            raise ValueError(f"service_time must be >= 0, got {service_time}")
        self.tree = tree
        self.mechanism = mechanism
        self.speed = speed
        self.service_time = service_time
        self._initial_locations = as_points(worker_locations)
        self._ledger = (
            PrivacyBudgetLedger(budget_capacity)
            if budget_capacity is not None
            else None
        )

    def run(self, task_locations, arrival_times, seed=None) -> FleetTrace:
        """Simulate the stream; tasks and times must align."""
        tasks = as_points(task_locations)
        times = np.asarray(arrival_times, dtype=np.float64)
        if times.shape != (len(tasks),):
            raise ValueError("need one arrival time per task")
        if np.any(np.diff(times) < 0):
            raise ValueError("arrival times must be non-decreasing")
        rng = ensure_rng(seed)
        trace = FleetTrace()

        eps = self.mechanism.epsilon
        n = len(self._initial_locations)
        true_location = self._initial_locations.copy()
        trie = LeafTrie(self.tree.depth, self.tree.branching)
        reported: dict[int, int] = {}  # worker -> reported leaf index
        for worker in range(n):
            if self._ledger is not None:
                self._ledger.spend(worker, eps)
            report = self._report(true_location[worker], rng)
            trie.insert(report, worker)
            reported[worker] = report
            trace.reports_sent += 1

        busy: list[tuple[float, int]] = []  # (free_time, worker) heap
        for task_id, (loc, now) in enumerate(zip(tasks, times)):
            self._release_due(busy, now, trie, reported, true_location, rng, trace)
            found = trie.pop_nearest(self._report(loc, rng))
            if found is None:
                trace.records.append(
                    RideRecord(task_id=task_id, arrival_time=float(now), worker=None)
                )
                continue
            worker, _level = found
            pickup = float(np.hypot(*(true_location[worker] - loc)))
            done = float(now) + pickup / self.speed + self.service_time
            true_location[worker] = loc  # the worker ends at the task site
            heapq.heappush(busy, (done, worker))
            trace.records.append(
                RideRecord(
                    task_id=task_id,
                    arrival_time=float(now),
                    worker=worker,
                    pickup_distance=pickup,
                    completion_time=done,
                )
            )
        return trace

    # ------------------------------------------------------------------ #
    # internals                                                            #
    # ------------------------------------------------------------------ #

    def _release_due(
        self, busy, now, trie, reported, true_location, rng, trace
    ) -> None:
        """Return workers whose rides completed; re-report when budget
        allows, otherwise re-enter under the stale (free) report."""
        eps = self.mechanism.epsilon
        while busy and busy[0][0] <= now:
            _, worker = heapq.heappop(busy)
            if self._ledger is None or self._ledger.can_spend(worker, eps):
                if self._ledger is not None:
                    self._ledger.spend(worker, eps)
                report = self._report(true_location[worker], rng)
                reported[worker] = report
                trace.reports_sent += 1
            else:
                report = reported[worker]
                trace.reports_suppressed += 1
            trie.insert(report, worker)

    def _report(self, location, rng) -> int:
        """Snap, obfuscate (the mechanism's own sampler) and return the
        reported leaf index."""
        path = self.mechanism.obfuscate(self.tree.leaf_for_location(location), rng)
        return path_to_leaf(path, self.tree.branching)

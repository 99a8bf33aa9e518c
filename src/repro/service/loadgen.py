"""Load generation: replay synthetic workloads through the client API.

The generator turns the repo's workload models into *timed* event streams:

* ``gaussian`` — the paper's synthetic Table-II model
  (:func:`~repro.workloads.synthetic.gaussian_workload`);
* ``taxi`` — the Chengdu-like peak-hour substitute
  (:class:`~repro.workloads.taxi.ChengduTaxiDataset`), one simulated day.

A ``warm_fraction`` of the workers registers before traffic starts (the
overnight fleet); the rest come online during the run, interleaved with
tasks, exercising the streaming-registration path. Task arrival times
come from the :mod:`repro.workloads.arrival` processes (``poisson``,
``uniform`` or ``bursty``).

Replays go through :class:`repro.api.AssignmentClient`, so one generator
drives any backend — in-process, sharded engine, or worker mesh — and
the assignment outcomes come back as typed responses. Because the
generator — unlike the server — knows every true coordinate, it closes
the loop on quality: it joins the replied ``(task, worker)`` decisions
back to the true locations and adds the mean *true* assignment distance
to the report.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from ..geometry.box import Box
from ..utils import ensure_rng
from ..workloads.arrival import (
    bursty_arrival_times,
    poisson_arrival_times,
    uniform_arrival_times,
)
from ..workloads.synthetic import SyntheticConfig, gaussian_workload
from ..workloads.taxi import ChengduTaxiDataset
from .events import TaskArrival, WorkerArrival, merge_event_streams
from .metrics import ServiceReport

__all__ = ["LoadConfig", "LoadGenerator"]

_WORKLOADS = ("gaussian", "taxi")
_ARRIVALS = ("poisson", "uniform", "bursty")


@dataclass(frozen=True)
class LoadConfig:
    """Everything one load-generation run needs."""

    workload: str = "gaussian"
    n_workers: int = 2000
    n_tasks: int = 600
    task_rate: float = 50.0
    arrival: str = "poisson"
    warm_fraction: float = 0.5
    shards: tuple[int, int] = (2, 2)
    grid_nx: int = 12
    epsilon: float = 0.5
    budget_capacity: float = 2.0
    batch_size: int = 256
    taxi_day: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.workload not in _WORKLOADS:
            raise ValueError(f"workload must be one of {_WORKLOADS}")
        if self.arrival not in _ARRIVALS:
            raise ValueError(f"arrival must be one of {_ARRIVALS}")
        if self.n_workers < 1 or self.n_tasks < 1:
            raise ValueError("need at least one worker and one task")
        if self.task_rate <= 0:
            raise ValueError(f"task_rate must be positive, got {self.task_rate}")
        if not 0.0 <= self.warm_fraction <= 1.0:
            raise ValueError("warm_fraction must lie in [0, 1]")
        # validate the engine knobs here too, so the CLI can surface every
        # bad flag as a clean usage error instead of a traceback mid-run
        if len(self.shards) != 2 or min(self.shards) < 1:
            raise ValueError(f"shards must be (nx, ny) with nx, ny >= 1, got {self.shards}")
        if self.grid_nx < 1:
            raise ValueError(f"grid_nx must be >= 1, got {self.grid_nx}")
        # written so a NaN fails: every comparison with NaN is False
        if not 0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if not self.budget_capacity >= self.epsilon:
            raise ValueError(
                "budget_capacity must cover at least one report's epsilon "
                f"(got capacity {self.budget_capacity} < epsilon {self.epsilon})"
            )
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


def _audit_true_distance(
    report: ServiceReport, pairs, workers, tasks
) -> ServiceReport:
    """Join ``(task, worker)`` pairs back to true coordinates.

    The generator-side quality audit: the server only ever sees reported
    distances, so the mean *true* assignment distance must be computed
    here, where the true coordinate arrays live.
    """
    if not pairs:
        return report
    t_idx = np.array([t for t, _ in pairs])
    w_idx = np.array([w for _, w in pairs])
    true_d = np.hypot(*(tasks[t_idx] - workers[w_idx]).T)
    return replace(report, mean_true_distance=float(true_d.mean()))


class LoadGenerator:
    """Build timed event streams and drive a backend through them."""

    def __init__(self, config: LoadConfig | None = None) -> None:
        self.config = config or LoadConfig()

    # ------------------------------------------------------------------ #
    # stream construction                                                 #
    # ------------------------------------------------------------------ #

    def build_locations(self) -> tuple[Box, np.ndarray, np.ndarray]:
        """Draw the run's region, worker and task coordinates."""
        cfg = self.config
        if cfg.workload == "gaussian":
            wl = gaussian_workload(
                SyntheticConfig(n_tasks=cfg.n_tasks, n_workers=cfg.n_workers),
                seed=cfg.seed,
            )
            return wl.region, wl.worker_locations, wl.task_locations
        dataset = ChengduTaxiDataset()
        wl = dataset.day_workload(cfg.taxi_day, cfg.n_workers, seed=cfg.seed)
        tasks = wl.task_locations
        if cfg.n_tasks < len(tasks):
            tasks = tasks[: cfg.n_tasks]
        return wl.region, wl.worker_locations, tasks

    def build_events(self):
        """The full timed stream: ``(region, events, workers, tasks)``.

        ``workers`` / ``tasks`` are the true coordinate arrays, returned so
        the caller can audit assignment quality after the replay.
        """
        cfg = self.config
        rng = ensure_rng(cfg.seed + 1)
        region, workers, tasks = self.build_locations()
        n_tasks = len(tasks)

        if cfg.arrival == "poisson":
            task_times = poisson_arrival_times(n_tasks, cfg.task_rate, rng)
        elif cfg.arrival == "uniform":
            task_times = uniform_arrival_times(
                n_tasks, n_tasks / cfg.task_rate, rng
            )
        else:
            task_times = bursty_arrival_times(n_tasks, cfg.task_rate, seed=rng)
        horizon = float(task_times[-1]) if n_tasks else 0.0

        n_warm = int(round(cfg.warm_fraction * len(workers)))
        worker_times = np.concatenate(
            [
                np.zeros(n_warm),
                np.sort(rng.uniform(0.0, horizon, size=len(workers) - n_warm))
                if horizon > 0
                else np.zeros(len(workers) - n_warm),
            ]
        )
        worker_events = [
            WorkerArrival(time=float(t), worker_id=i, location=loc)
            for i, (t, loc) in enumerate(zip(worker_times, workers))
        ]
        task_events = [
            TaskArrival(time=float(t), task_id=i, location=loc)
            for i, (t, loc) in enumerate(zip(task_times, tasks))
        ]
        events = merge_event_streams(worker_events, task_events)
        return region, events, workers, tasks

    # ------------------------------------------------------------------ #
    # replay                                                              #
    # ------------------------------------------------------------------ #

    def service_spec(self, region: Box):
        """This run's :class:`repro.api.ServiceSpec` (backend-agnostic).

        The root seed is offset exactly like the historical engine seed,
        so reseeded comparisons across repo versions stay meaningful.
        """
        from ..api import ServiceSpec

        cfg = self.config
        return ServiceSpec(
            region=region,
            shards=cfg.shards,
            grid_nx=cfg.grid_nx,
            epsilon=cfg.epsilon,
            budget_capacity=cfg.budget_capacity,
            batch_size=cfg.batch_size,
            seed=cfg.seed + 2,
        )

    def replay(self, client, plan=None) -> ServiceReport:
        """Replay the stream through an API client; quality-audited report.

        ``plan`` is a prebuilt :meth:`build_events` tuple (so callers who
        needed the region to construct their backend don't synthesize the
        workload twice). The wall clock covers serving — streaming the
        requests plus the final flush — never backend setup, mirroring
        the paper's running-time discipline. Every assignment decision
        arrives as a typed response, which is what lets the generator
        audit true distances without reaching into backend internals.
        """
        from ..api import TaskDecision, requests_from_events

        region, events, workers, tasks = plan if plan is not None else self.build_events()
        pairs: list[tuple[int, int]] = []
        start = time.perf_counter()
        for response in client.stream(requests_from_events(events)):
            if isinstance(response, TaskDecision) and response.worker_id is not None:
                pairs.append((response.task_id, response.worker_id))
        client.flush()
        wall = time.perf_counter() - start
        report = client.report(wall_seconds=wall)
        return _audit_true_distance(report, pairs, workers, tasks)

    def run(
        self, *, backend: str = "sharded", backend_kwargs: dict | None = None
    ) -> ServiceReport:
        """Replay the stream and return a quality-audited report.

        The replay goes through :class:`repro.api.AssignmentClient` over
        a freshly built backend of ``backend`` kind (``"inprocess"``,
        ``"sharded"`` or ``"mesh"``; ``backend_kwargs`` reach the
        backend constructor). Backend construction (HST builds, process
        spawns) happens *outside* the timed window, mirroring the paper's
        running-time discipline: the clock measures serving, not setup.
        """
        from ..api import AssignmentClient, make_backend

        plan = self.build_events()
        backend_obj = make_backend(
            backend, self.service_spec(plan[0]), **(backend_kwargs or {})
        )
        with AssignmentClient(backend_obj) as client:
            return self.replay(client, plan)

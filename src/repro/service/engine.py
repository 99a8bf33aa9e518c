"""The sharded online assignment engine.

:class:`ShardedAssignmentEngine` is the subsystem's front door: a router
in front of one :class:`~repro.cluster.worker.ShardHost`. It owns a
:class:`~repro.service.sharding.ShardMap` over the service region, and
its host holds one :class:`~repro.service.shard.ShardServer` per cell
under the routing key ``"s<i>"``. Timed worker/task events arrive
through one ingest path, :meth:`ShardedAssignmentEngine.ingest`. A chunk
of events (an API stream window, a worker wave, or a single call) is
admitted against the engine-wide worker-id and task-id registries
(:func:`~repro.cluster.worker.admit`), routed with one vectorized
:meth:`~repro.service.sharding.ShardMap.shard_of_many` pass and handed
to one :meth:`~repro.cluster.worker.ShardHost.ingest` call, which
applies it in stream order:

* **worker arrivals** join their shard's pending cohort; a cohort is
  flushed through the vectorized batch-obfuscation path when it reaches
  ``batch_size``, when a task for that shard arrives (so no matchable
  worker is ever invisible to a later task), or at end of stream.
  Batching amortizes the per-report Python overhead;
* **task arrivals** flush their shard's pending cohort and are matched
  immediately by the shard's Algorithm-4 server.

The cut points depend only on stream order, never on where a chunk
ends, so any chunking of a stream — one event per call included —
yields bit-identical assignments. Every mesh worker serves its shards
through the same :meth:`~repro.cluster.worker.ShardHost.ingest`, fed by
the coordinator's :class:`~repro.cluster.dispatch.FamilyJournal`, so the
engine and the mesh share their apply code.
``register_worker``, ``register_workers`` and ``submit_task`` are thin
callers of :meth:`ingest`.
Shard RNG streams are keyed (:func:`~repro.utils.keyed_shard_seed` on
``"s<i>"``), the convention every backend shares.

The engine is deliberately synchronous and single-process, and serves
one caller at a time (the gateway runs requests one at a time, in
arrival order): shards share nothing, so lifting them onto
threads/processes/hosts is a transport problem, not an algorithmic one —
:mod:`repro.mesh` is exactly that lift, running the same shards across
worker processes with snapshot checkpoints, crash failover and
hot-shard balancing, on the shard-family core in :mod:`repro.cluster`.
"""

from __future__ import annotations

from ..cluster.worker import ShardHost, admit, refusal, shard_spec
from ..geometry.box import Box
from ..geometry.points import as_points
from ..utils import keyed_shard_seed
from .metrics import ServiceReport, build_report
from .sharding import ShardMap

__all__ = ["ShardedAssignmentEngine"]


class ShardedAssignmentEngine:
    """Partitioned online assignment over a whole service region.

    Parameters
    ----------
    region:
        The full service region.
    shards:
        ``(nx, ny)`` shard lattice shape.
    grid_nx:
        Predefined-point lattice side *per shard*.
    epsilon:
        Geo-I budget per report.
    budget_capacity:
        Per-worker cumulative epsilon cap on each shard's ledger.
    batch_size:
        Worker-cohort buffer size per shard; ``1`` degenerates to
        per-worker (loop) obfuscation.
    seed:
        Integer root seed. Shard ``i`` draws from
        ``keyed_shard_seed(seed, f"s{i}")``, the convention every
        backend shares, so an engine grows bit-identical shard streams
        to a mesh run with the same root seed.
    """

    def __init__(
        self,
        region: Box,
        shards: tuple[int, int] = (2, 2),
        grid_nx: int = 16,
        epsilon: float = 0.5,
        budget_capacity: float = 2.0,
        batch_size: int = 256,
        seed: int = 0,
    ) -> None:
        if not isinstance(seed, int):
            raise ValueError(f"seed must be an int (keyed shard seeding), got {seed!r}")
        self.shard_map = ShardMap(region, *shards)
        self.host = ShardHost(batch_size)
        #: routing key of each lattice cell, indexed by cell id
        self.keys = [f"s{i}" for i in range(self.shard_map.n_shards)]
        for i, key in enumerate(self.keys):
            self.host.create(
                key,
                shard_spec(
                    self.shard_map.shard_box(i),
                    grid_nx=grid_nx,
                    epsilon=epsilon,
                    budget_capacity=budget_capacity,
                    seed=keyed_shard_seed(seed, key),
                ),
            )
        # engine-wide id registries: shards only see their own workers, so
        # cross-shard duplicates must be caught here or one worker id
        # could be assigned twice and budget-charged on two ledgers; a
        # task id names one decision, so it may arrive only once
        self._known_workers: set[int] = set()
        self._known_tasks: set[int] = set()
        self.now = 0.0

    @property
    def n_shards(self) -> int:
        return len(self.keys)

    # ------------------------------------------------------------------ #
    # ingestion                                                           #
    # ------------------------------------------------------------------ #

    def ingest(self, ids, locations, is_task, times=None) -> list[int | None]:
        """Apply a chunk of worker/task arrivals in stream order.

        Row ``i`` is a task arrival when ``is_task[i]`` is true (``ids[i]``
        is then its task id), else a worker arrival (``ids[i]`` is its
        worker id). The chunk is admitted against the id registries,
        routed with one
        :meth:`~repro.service.sharding.ShardMap.shard_of_many` pass and
        applied by one :meth:`~repro.cluster.worker.ShardHost.ingest`
        call. ``times``, a
        sequence parallel to ``ids``, advances the simulation clock to
        the latest event applied.

        Returns every task's decision (worker id or ``None``) in stream
        order. A worker or task id the engine has seen before raises
        ``ValueError`` at its event: the events before it stay applied
        (clock included) and neither it nor any after it run, exactly as
        if each event had been its own call.
        """
        locs = as_points(locations)
        if not len(ids) == len(is_task) == len(locs):
            raise ValueError("need one id and one kind per location")
        # int() hands an int back as itself: the matcher keeps and returns
        # the callers' own id objects
        ids = [int(i) for i in ids]
        accepted = admit(self._known_workers, self._known_tasks, ids, is_task)
        refused = None
        if accepted < len(ids):
            refused = refusal(ids, is_task, accepted, "the engine")
        ids, is_task, locs = ids[:accepted], is_task[:accepted], locs[:accepted]
        keys = self.keys
        decisions = self.host.ingest(
            [keys[s] for s in self.shard_map.shard_of_many(locs).tolist()],
            ids,
            locs.tolist(),
            is_task,
        )
        if times is not None and accepted:
            self.now = max(self.now, float(max(times[:accepted])))
        if refused is not None:
            raise refused
        return decisions

    def register_worker(self, worker_id: int, location) -> None:
        """Buffer one worker arrival on its shard's pending cohort."""
        self.ingest([worker_id], [location], [False])

    def register_workers(self, worker_ids, locations) -> None:
        """Route and buffer a whole worker wave (one routing pass)."""
        ids = list(worker_ids)
        self.ingest(ids, locations, [False] * len(ids))

    def submit_task(self, task_id: int, location) -> int | None:
        """Route and match one task; flushes its shard's pending cohort."""
        return self.ingest([task_id], [location], [True])[0]

    def flush(self) -> None:
        """Push every pending worker cohort through batch obfuscation."""
        self.host.flush()

    # ------------------------------------------------------------------ #
    # telemetry                                                           #
    # ------------------------------------------------------------------ #

    def report(self, wall_seconds: float = float("nan")) -> ServiceReport:
        """Aggregate all shard metrics into one :class:`ServiceReport`."""
        self.flush()
        return build_report(
            self.host.report().values(),
            wall_seconds=wall_seconds,
            sim_duration=self.now,
        )

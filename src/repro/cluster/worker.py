"""The shard container: a :class:`ShardHost`.

One host owns a set of shards keyed by routing key (``"s3"``, or the
split sub-shard ``"s3/1"``) and drives them with the one cohort rule:
worker arrivals are buffered per shard and flushed through the
vectorized batch-obfuscation path at ``batch_size``; task arrivals flush
their shard and match immediately, probing the key's fallback chain
(:func:`~repro.cluster.balancer.fallback_chain`, derived once per key).

Rows reach a host only through :meth:`ShardHost.ingest` — shard keys,
ids, locations and kinds as columns, in stream order. Every runtime
serves its shards that way: the single-process
:class:`~repro.service.engine.ShardedAssignmentEngine` holds one host
over every lattice cell, and each mesh worker process
(:mod:`repro.mesh.worker`) serves one behind the ``events`` op of
:mod:`repro.mesh.protocol` — so the engine, the mesh workers and a
failover replay cut cohorts and record metrics with the same code.
:func:`admit` is the one duplicate-worker rule the engine and the mesh
journal apply before their rows reach a host.
"""

from __future__ import annotations

import time

from ..geometry.box import Box
from ..service.shard import ShardServer
from .balancer import fallback_chain
from .snapshot import delta_snapshot, restore_chain, snapshot_shard

__all__ = ["RefusedRow", "ShardHost", "admit", "refusal", "shard_spec"]


def admit(workers: set, tasks: set, ids, is_task) -> int:
    """Length of a chunk's accepted prefix; records its ids.

    Row ``i`` is a task when ``is_task[i]`` is true, else a worker. The
    prefix ends at the first id already in its kind's registry
    (``tasks`` or ``workers``) or repeated earlier in the chunk; the
    caller applies the prefix, moves its clock to the prefix's latest
    time and raises :func:`refusal` for the refused row.
    """
    accepted = 0
    for event_id, task in zip(ids, is_task):
        registry = tasks if task else workers
        if event_id in registry:
            break
        registry.add(event_id)
        accepted += 1
    return accepted


class RefusedRow(ValueError):
    """A refused row; the chunk's rows before index ``row`` applied."""

    def __init__(self, message: str, row: int) -> None:
        super().__init__(message)
        self.row = row


def refusal(ids, is_task, row: int, where: str) -> RefusedRow:
    """The error for the row :func:`admit` refused, naming its kind (a
    task or worker id seen before by ``where``)."""
    if is_task[row]:
        return RefusedRow(f"task id already submitted to {where}: {ids[row]}", row)
    return RefusedRow(f"worker id already registered with {where}: {ids[row]}", row)


def shard_spec(
    box: Box, *, grid_nx: int, epsilon: float, budget_capacity: float, seed: int
) -> dict:
    """The JSON-pure creation spec :meth:`ShardHost.create` builds from.

    ``seed`` is the shard's own stream seed (callers derive it with
    :func:`~repro.utils.keyed_shard_seed` on the routing key).
    """
    return {
        "box": [box.xmin, box.ymin, box.xmax, box.ymax],
        "grid_nx": grid_nx,
        "epsilon": epsilon,
        "budget_capacity": budget_capacity,
        "seed": seed,
    }


class ShardHost:
    """In-process container for a set of shards and their cohort buffers."""

    def __init__(self, batch_size: int = 256) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.batch_size = batch_size
        self.shards: dict[str, ShardServer] = {}
        self.pending: dict[str, tuple[list[int], list]] = {}
        #: each shard's task fallback chain, derived from its key
        self.chains: dict[str, tuple[str, ...]] = {}
        # per-shard delta-checkpoint cursors: checkpoint id -> the
        # pure-value cursor taken when that checkpoint was answered
        self.cursors: dict[str, dict[int, dict]] = {}

    # ------------------------------------------------------------------ #
    # shard lifecycle                                                     #
    # ------------------------------------------------------------------ #

    def create(self, key: str, spec: dict) -> None:
        """Build a fresh shard from its :func:`shard_spec`."""
        if key in self.shards:
            raise ValueError(f"shard {key!r} already hosted")
        self.shards[key] = ShardServer(
            key,
            Box(*(float(v) for v in spec["box"])),
            grid_nx=int(spec["grid_nx"]),
            epsilon=float(spec["epsilon"]),
            budget_capacity=float(spec["budget_capacity"]),
            seed=int(spec["seed"]),
        )
        self.pending[key] = ([], [])
        self.chains[key] = fallback_chain(key)

    def load(self, key: str, snapshots: list) -> None:
        """Install a shard restored from a ``[base, delta, ...]`` chain.

        The chain is composed and the tip checkpoint's cursor is seeded,
        so the restored shard can immediately answer "what changed since
        the last checkpoint" deltas.
        """
        if key in self.shards:
            raise ValueError(f"shard {key!r} already hosted")
        shard, pending = restore_chain(snapshots)
        if shard.shard_id != key:
            raise ValueError(
                f"snapshot is for shard {shard.shard_id!r}, not {key!r}"
            )
        tip = snapshots[-1].get("checkpoint")
        self.shards[key] = shard
        self.pending[key] = pending
        self.chains[key] = fallback_chain(key)
        self.cursors[key] = (
            {tip: shard.checkpoint_cursor()} if tip is not None else {}
        )

    def drop(self, key: str) -> None:
        """Forget a shard (it has been migrated elsewhere)."""
        del self.shards[key]
        del self.pending[key]
        del self.chains[key]
        self.cursors.pop(key, None)

    def snapshot(
        self, key: str, *, mode: str = "base", checkpoint=None, parent=None
    ) -> dict:
        """Snapshot a shard *including* its un-flushed pending buffer.

        ``mode="delta"`` answers a delta against ``parent`` when that
        checkpoint's cursor is still held — falling back to a base
        otherwise (e.g. first checkpoint, or a freshly restored worker
        asked against a checkpoint it never cut). The export is
        non-destructive: cursors for ``parent`` and the new
        ``checkpoint`` are retained, so a retried checkpoint cut can ask
        against the same parent again.
        """
        shard = self.shards[key]
        cursors = self.cursors.setdefault(key, {})
        cursor = cursors.get(parent) if mode == "delta" else None
        if cursor is not None:
            doc = delta_snapshot(
                shard,
                self.pending[key],
                cursor,
                checkpoint=checkpoint,
                parent=parent,
            )
        else:
            doc = snapshot_shard(
                shard, self.pending[key], checkpoint=checkpoint
            )
        if checkpoint is not None:
            kept = {checkpoint: shard.checkpoint_cursor()}
            if doc["kind"] == "delta":
                kept[parent] = cursors[parent]
            self.cursors[key] = kept
        return doc

    # ------------------------------------------------------------------ #
    # serving                                                             #
    # ------------------------------------------------------------------ #

    def ingest(self, keys, ids, locations, is_task) -> list[int | None]:
        """Apply rows in stream order; each task row's worker (or None).

        Row ``i`` goes to shard ``keys[i]``. A worker row joins that
        shard's pending cohort, which is flushed at ``batch_size``: the
        threshold is checked per row, never per call, so any split of a
        stream into calls cuts cohorts at the same positions and the
        obfuscation draws stay bit-identical. A task row (``is_task[i]``
        true, ``ids[i]`` its task id) is matched along its key's chain
        (:meth:`task`). ``locations`` holds one ``(x, y)`` pair per row.
        """
        pending, chains, limit = self.pending, self.chains, self.batch_size
        workers: list[int | None] = []
        for key, event_id, location, task in zip(keys, ids, locations, is_task):
            if task:
                workers.append(self.task(chains[key], event_id, location))
                continue
            cohort, locs = pending[key]
            cohort.append(event_id)
            locs.append(location)
            if len(cohort) >= limit:
                self.flush(key)
        return workers

    def flush(self, key: str | None = None) -> None:
        """Push pending cohorts through batch obfuscation (``None`` = all)."""
        targets = list(self.shards) if key is None else [key]
        for k in targets:
            ids, locs = self.pending[k]
            if not ids:
                continue
            self.pending[k] = ([], [])
            self.shards[k].register_cohort(ids, locs)

    def task(self, keys, task_id: int, location) -> int | None:
        """Match one task along its routing chain; the worker or None.

        ``keys`` lists the shards to try in order — the owning sub-shard
        first, then (after a hot-shard split) the parent shard that still
        holds the pre-split worker pool. On a full miss the unassigned
        metric is recorded once, on the primary shard, by the chain's
        last probe. Hits and misses are timed alike: the probe's own
        matching time plus the earlier probes' full serving time, so a
        one-key chain records exactly what a lone :class:`ShardServer`
        does.
        """
        # flush before the clock starts: pending registrations are not
        # part of the task's matching latency
        for key in keys:
            self.flush(key)
        charge = self.shards[keys[0]].metrics
        last = len(keys) - 1
        start = time.perf_counter()
        for i, key in enumerate(keys):
            worker = self.shards[key].submit_task(
                task_id,
                location,
                record_miss=charge if i == last else False,
                # time already burnt probing earlier shards in the chain
                latency_offset=time.perf_counter() - start if i else 0.0,
            )
            if worker is not None:
                return worker
        return None

    def report(self) -> dict[str, dict]:
        """Every hosted shard's :meth:`~ShardServer.report_row`, by key."""
        return {key: shard.report_row() for key, shard in self.shards.items()}

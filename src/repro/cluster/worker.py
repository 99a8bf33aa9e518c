"""The worker side of a shard family: a :class:`ShardHost`.

One host owns a disjoint set of shards (keyed by routing key, e.g.
``"s3"`` or the split sub-shard ``"s3/1"``) and drives them exactly like
the single-process engine drives its shard list: worker arrivals are
buffered per shard and flushed through the vectorized batch-obfuscation
path; task arrivals flush their shard and match immediately.

A mesh worker process (:mod:`repro.mesh.worker`) serves one host behind
the :mod:`repro.mesh.protocol` ops. ``ops`` entries handed to
:meth:`ShardHost.apply` are either a merged worker-cohort op
``["w", key, ids, locations]`` or a task op
``["t", keys, task_id, location]`` whose ``keys`` is the routing
fallback chain (sub-shard first, then its split parent).
"""

from __future__ import annotations

import time

from ..geometry.box import Box
from ..service.shard import ShardServer
from .snapshot import delta_snapshot, restore_chain, restore_shard, snapshot_shard

__all__ = ["ShardHost"]


class ShardHost:
    """In-process container for the shards one worker serves.

    The worker-side mirror of the engine's shard list + pending buffers;
    it is also usable standalone.
    """

    def __init__(self, batch_size: int = 256) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.batch_size = batch_size
        self.shards: dict[str, ShardServer] = {}
        self.pending: dict[str, tuple[list[int], list]] = {}
        # per-shard delta-checkpoint cursors: checkpoint id -> the
        # pure-value cursor taken when that checkpoint was answered
        self.cursors: dict[str, dict[int, dict]] = {}

    # ------------------------------------------------------------------ #
    # shard lifecycle                                                     #
    # ------------------------------------------------------------------ #

    def create(self, key: str, spec: dict) -> None:
        """Build a fresh shard from its creation spec (box, knobs, seed)."""
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

    def load(self, key: str, snapshot) -> None:
        """Install a shard restored from a checkpoint snapshot.

        ``snapshot`` is either one base document or a ``[base, delta,
        ...]`` chain; a chain is composed first and the tip checkpoint's
        cursor is seeded, so the restored shard can immediately answer
        "what changed since the last checkpoint" deltas.
        """
        if key in self.shards:
            raise ValueError(f"shard {key!r} already hosted")
        if isinstance(snapshot, list):
            shard, pending = restore_chain(snapshot)
            tip = snapshot[-1].get("checkpoint")
        else:
            shard, pending = restore_shard(snapshot)
            tip = snapshot.get("checkpoint")
        if shard.shard_id != key:
            raise ValueError(
                f"snapshot is for shard {shard.shard_id!r}, not {key!r}"
            )
        self.shards[key] = shard
        self.pending[key] = pending
        self.cursors[key] = (
            {tip: shard.checkpoint_cursor()} if tip is not None else {}
        )

    def drop(self, key: str) -> None:
        """Forget a shard (it has been migrated elsewhere)."""
        del self.shards[key]
        del self.pending[key]
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
        ``checkpoint`` are retained, so a retried barrier round can ask
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

    def register(self, key: str, worker_ids, locations) -> None:
        """Buffer a worker cohort on its shard; flush at ``batch_size``.

        Workers are appended (and the threshold checked) one at a time,
        exactly like the engine's per-event path — not per transport op —
        so the mesh and the engine cut cohorts at identical points in the
        stream and their obfuscation draws stay bit-identical.
        """
        for wid, loc in zip(worker_ids, locations):
            ids, locs = self.pending[key]
            ids.append(int(wid))
            locs.append(loc)
            if len(ids) >= self.batch_size:
                self.flush(key)

    def flush(self, key: str | None = None) -> None:
        """Push pending cohorts through batch obfuscation (``None`` = all)."""
        targets = list(self.shards) if key is None else [key]
        for k in targets:
            ids, locs = self.pending[k]
            if not ids:
                continue
            self.pending[k] = ([], [])
            self.shards[k].register_cohort(ids, locs)

    def task(self, keys, task_id: int, location) -> tuple[int | None, str]:
        """Match one task along its routing chain.

        ``keys`` lists the shards to try in order — the owning sub-shard
        first, then (after a hot-shard split) the parent shard that still
        holds the pre-split worker pool. Returns ``(worker_id, key)`` for
        the shard that served it; on a full miss the unassigned metric is
        recorded once, on the primary shard.
        """
        # flush before the clock starts: the engine, too, registers the
        # pending cohort outside the measured matching latency, keeping
        # the two runtimes' latency quantiles comparable
        for key in keys:
            self.flush(key)
        start = time.perf_counter()
        for key in keys:
            worker = self.shards[key].submit_task(
                task_id,
                location,
                record_miss=False,
                # time already burnt probing earlier shards in the chain
                latency_offset=time.perf_counter() - start,
            )
            if worker is not None:
                return worker, key
        primary = keys[0]
        self.shards[primary].metrics.record_unassigned(
            time.perf_counter() - start
        )
        return None, primary

    def apply(self, ops) -> list[tuple[int, int | None, str]]:
        """Apply one dispatched op batch; returns per-task results."""
        results: list[tuple[int, int | None, str]] = []
        for op in ops:
            if op[0] == "w":
                _, key, ids, locs = op
                self.register(key, ids, locs)
            else:
                _, keys, task_id, loc = op
                worker, key = self.task(keys, int(task_id), loc)
                results.append((int(task_id), worker, key))
        return results

    def report(self) -> dict:
        """Frozen metrics per hosted shard, with pooled raw samples.

        Raw latency samples ride along so the coordinator can compute
        service-wide quantiles from the pooled samples rather than
        averaging per-shard quantiles; distances travel as exact
        ``(total, count)`` aggregates only — the service-wide mean needs
        nothing more.
        """
        return {
            key: {
                "snapshot": shard.snapshot(),
                "latencies_s": list(shard.metrics.latencies_s),
                "distance_total": shard.metrics.reported_distances.total,
                "distance_count": shard.metrics.reported_distances.count,
                "pending": len(self.pending[key][0]),
            }
            for key, shard in self.shards.items()
        }


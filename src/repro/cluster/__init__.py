"""repro.cluster — the shard-family core the engine and the mesh run on.

A *shard family* is one base lattice cell plus any sub-shards a hot-cell
split carved out of it; it is the unit of placement, journaling,
checkpointing and migration. The distributed coordinator
(:class:`~repro.mesh.coordinator.MeshCoordinator`) is built from these
pieces:

* :mod:`repro.cluster.snapshot` — versioned JSON snapshots of a shard's
  full state (HST, privacy ledger, matcher, metrics, RNG stream, pending
  cohort buffer), as base + delta chains with a bit-exact replay
  guarantee, and their one text codec (:func:`snapshot_text`,
  :func:`parse_snapshot`);
* :class:`~repro.cluster.dispatch.FamilyJournal` — routes chunks of
  arrival columns into per-family row journals (one fixed-width
  :data:`~repro.cluster.dispatch.EVENT_ROW_DTYPE` row per event, its
  shard key an index into the family's key table — the mesh wire's own
  row layout) with absolute cursors for delivery, replay and per-family
  truncation at each checkpoint cut;
* :class:`ShardHost` — the one shard container: the single-process
  engine and every mesh worker hold, buffer, cut and report their
  shards through it, and rows reach it only through
  :meth:`ShardHost.ingest` (:func:`shard_spec` builds its creation
  spec; :func:`~repro.cluster.worker.admit` is the one duplicate-worker
  rule in front of it);
* :class:`ClusterRouter` — lattice routing with one level of hot-cell
  refinement (split cells route to sub-shards, whose
  :func:`~repro.cluster.balancer.fallback_chain` drains the parent);
* :class:`HotShardBalancer` — throughput-driven hot-cell splitting and
  family migration.
"""

from .balancer import BalancerConfig, ClusterRouter, HotShardBalancer
from .snapshot import (
    SNAPSHOT_FORMAT,
    SNAPSHOT_VERSION,
    SnapshotError,
    compose_chain,
    delta_snapshot,
    parse_snapshot,
    restore_chain,
    restore_shard,
    snapshot_shard,
    snapshot_text,
)
from .worker import ShardHost, shard_spec

__all__ = [
    "BalancerConfig",
    "ClusterRouter",
    "HotShardBalancer",
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "ShardHost",
    "SnapshotError",
    "compose_chain",
    "delta_snapshot",
    "parse_snapshot",
    "restore_chain",
    "restore_shard",
    "shard_spec",
    "snapshot_shard",
    "snapshot_text",
]

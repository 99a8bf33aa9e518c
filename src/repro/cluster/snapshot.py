"""Versioned shard-state snapshots: the mesh's checkpoint wire format.

A v3 snapshot document comes in two kinds:

* a **base** — one JSON document capturing *everything* a shard is at a
  point in the event stream:

  - the published HST (via :func:`~repro.hst.serialize.hst_to_dict` — the
    same round-trip-guaranteed format clients consume);
  - the per-worker privacy ledger balances
    (:meth:`~repro.privacy.budget.PrivacyBudgetLedger.to_dict`);
  - the matcher state — registrations, slot table, consumed slots, and
    the accumulated result
    (:meth:`~repro.crowdsourcing.server.MatchingServer.export_state`);
  - the metrics recorder and the client-side RNG state
    (:meth:`~repro.service.shard.ShardServer.export_state`);
  - the *pending cohort buffer* — worker arrivals batched but not yet
    obfuscated. The buffer holds true locations that have not crossed
    the privacy boundary, so it lives in the snapshot, never in a log a
    server component could read.

* a **delta** — only the cells changed since the *parent* checkpoint:
  the ledger history suffix, new registrations/assignments/consumed
  matcher slots, reservoir suffixes and overwrites, the RNG state, and
  the (small, bounded) pending buffer. Deltas chain by checkpoint id:
  ``doc["parent"]`` names the checkpoint the delta builds on, and
  :func:`compose_chain` folds ``[base, delta, delta, ...]`` back into a
  single base document *bit-identically* — the composed ``state`` dict
  equals a full export taken at the same moment, float for float.
  Coordinators rebase periodically (request a fresh base) so chains stay
  bounded; every restore cost is then O(base + bounded deltas).

Malformed documents and broken chains raise :class:`SnapshotError`, a
``ValueError`` with a stable ``code`` string for programmatic handling.

Round-trip guarantee (mirrors ``hst_to_dict``/``hst_from_dict``):
restoring a snapshot taken mid-stream — from a base document or composed
from a base + delta chain — and replaying the remaining events produces
byte-identical assignments to the uninterrupted run; the RNG state makes
every subsequent obfuscation draw the same. This is what lets the
coordinator checkpoint shards in O(delta), restart a crashed worker from
its last chain, and migrate a family between workers: a checkpoint cut
on the old owner, an ownership flip and a drop, after which the new
owner restores the family from the cut's chains.
"""

from __future__ import annotations

import json

import numpy as np

from ..service.shard import ShardServer

__all__ = [
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "SnapshotError",
    "snapshot_shard",
    "delta_snapshot",
    "restore_shard",
    "compose_chain",
    "restore_chain",
    "snapshot_to_json",
    "snapshot_from_json",
]

SNAPSHOT_FORMAT = "repro-shard-snapshot"
#: The one version this runtime writes and restores: base/delta document
#: kinds chained by checkpoint id. Snapshots live only in coordinator
#: memory, never on disk, so no older document exists to read.
SNAPSHOT_VERSION = 3

#: A shard with no buffered worker arrivals.
_EMPTY_PENDING: tuple[list, list] = ([], [])


class SnapshotError(ValueError):
    """A snapshot document or chain this runtime refuses to restore.

    ``code`` is a stable machine-readable identifier (the message text is
    not): ``snapshot-bad-format``, ``snapshot-unsupported-version``,
    ``snapshot-missing-fields``, ``snapshot-delta-alone``,
    ``snapshot-chain-empty``, ``snapshot-chain-base``,
    ``snapshot-chain-order``, ``snapshot-chain-broken``.
    """

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


def _pending_doc(pending) -> dict:
    ids, locs = pending if pending is not None else _EMPTY_PENDING
    ids = [int(w) for w in ids]
    if len(ids) != len(locs):
        raise ValueError("pending buffer needs one worker id per location")
    return {
        "worker_ids": ids,
        "locations": [[float(p[0]), float(p[1])] for p in locs],
    }


def snapshot_shard(shard: ShardServer, pending=None, *, checkpoint=None) -> dict:
    """Freeze one shard (and its pending cohort buffer) into a base doc.

    ``pending`` is the shard's un-flushed ``(worker_ids, locations)``
    cohort buffer as a :class:`~repro.cluster.worker.ShardHost` keeps
    it; ``None`` means the buffer is empty. ``checkpoint`` is the id the
    coordinator assigned (``None`` for ad-hoc snapshots); deltas chain
    onto it via their ``parent`` field.
    """
    return {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "kind": "base",
        "checkpoint": checkpoint,
        "state": shard.export_state(),
        "pending": _pending_doc(pending),
    }


def delta_snapshot(
    shard: ShardServer, pending, cursor: dict, *, checkpoint, parent
) -> dict:
    """Export only what changed since the ``cursor`` taken at ``parent``.

    The cursor is the pure-value marker
    :meth:`~repro.service.shard.ShardServer.checkpoint_cursor` returned
    when the parent checkpoint was cut; the export is non-destructive, so
    one shard can answer deltas against the same parent repeatedly (the
    mesh coordinator retries a whole checkpoint cut after a peer loss).
    """
    return {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "kind": "delta",
        "checkpoint": checkpoint,
        "parent": parent,
        "delta": shard.export_delta(cursor),
        "pending": _pending_doc(pending),
    }


def _kind_of(payload) -> str:
    """A checked document's kind (``"base"`` or ``"delta"``)."""
    if not isinstance(payload, dict):
        raise SnapshotError(
            "snapshot-bad-format", "snapshot payload must be a dict"
        )
    if payload.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotError(
            "snapshot-bad-format",
            f"not a {SNAPSHOT_FORMAT} document: {payload.get('format')!r}",
        )
    version = payload.get("version")
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(
            "snapshot-unsupported-version",
            f"unsupported snapshot version {version!r} "
            f"(this runtime reads v{SNAPSHOT_VERSION})",
        )
    return payload.get("kind", "base")


def restore_shard(payload: dict) -> tuple[ShardServer, tuple[list[int], list]]:
    """Reconstruct ``(shard, pending)`` from a *base* snapshot document.

    Delta documents cannot be restored alone — hand the whole chain to
    :func:`restore_chain` instead.
    """
    if _kind_of(payload) != "base":
        raise SnapshotError(
            "snapshot-delta-alone",
            "cannot restore a delta document by itself; compose its chain "
            "with restore_chain(base, deltas...)",
        )
    missing = {"state", "pending"} - set(payload)
    if missing:
        raise SnapshotError(
            "snapshot-missing-fields",
            f"snapshot missing fields: {sorted(missing)}",
        )
    shard = ShardServer.from_state(payload["state"])
    buf = payload["pending"]
    pending = (
        [int(w) for w in buf["worker_ids"]],
        [np.asarray(p, dtype=np.float64) for p in buf["locations"]],
    )
    if len(pending[0]) != len(pending[1]):
        raise ValueError("pending buffer needs one worker id per location")
    return shard, pending


def compose_chain(docs) -> dict:
    """Fold ``[base, delta, delta, ...]`` into one base document.

    Validates the chain shape — the first document must be a base, every
    later one a delta whose ``parent`` equals its predecessor's
    ``checkpoint`` — then applies the deltas in order at the dict level.
    The composed ``state`` is bit-identical to a full export taken at the
    final checkpoint; the composed document carries that checkpoint id.
    """
    docs = list(docs)
    if not docs:
        raise SnapshotError("snapshot-chain-empty", "snapshot chain is empty")
    head = docs[0]
    if _kind_of(head) != "base":
        raise SnapshotError(
            "snapshot-chain-base",
            "snapshot chain must start with a base document, got a "
            f"{head.get('kind')!r} document first",
        )
    if len(docs) == 1:
        return head
    missing = {"state", "pending"} - set(head)
    if missing:
        raise SnapshotError(
            "snapshot-missing-fields",
            f"snapshot missing fields: {sorted(missing)}",
        )
    state = head["state"]
    pending = head["pending"]
    tip = head.get("checkpoint")
    for doc in docs[1:]:
        if _kind_of(doc) != "delta":
            raise SnapshotError(
                "snapshot-chain-order",
                "snapshot chain holds a base document after the first "
                "position; a chain is one base plus deltas",
            )
        missing = {"delta", "pending", "checkpoint", "parent"} - set(doc)
        if missing:
            raise SnapshotError(
                "snapshot-missing-fields",
                f"delta document missing fields: {sorted(missing)}",
            )
        if tip is None or doc["parent"] != tip:
            raise SnapshotError(
                "snapshot-chain-broken",
                f"delta {doc['checkpoint']!r} chains onto parent "
                f"{doc['parent']!r} but the chain tip is {tip!r}",
            )
        state = ShardServer.compose_state(state, doc["delta"])
        pending = doc["pending"]
        tip = doc["checkpoint"]
    return {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "kind": "base",
        "checkpoint": tip,
        "state": state,
        "pending": pending,
    }


def restore_chain(docs) -> tuple[ShardServer, tuple[list[int], list]]:
    """Compose a base + delta chain and restore the resulting shard."""
    return restore_shard(compose_chain(docs))


def snapshot_to_json(shard: ShardServer, pending=None, indent=None) -> str:
    """Serialize a shard snapshot to a JSON string."""
    return json.dumps(snapshot_shard(shard, pending), indent=indent)


def snapshot_from_json(text: str) -> tuple[ShardServer, tuple[list[int], list]]:
    """Restore ``(shard, pending)`` from a JSON snapshot string."""
    return restore_shard(json.loads(text))

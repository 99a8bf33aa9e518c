"""Routing with hot-cell splits, and the load-balancing policy.

**Routing.** :class:`ClusterRouter` wraps the service layer's uniform
:class:`~repro.service.sharding.ShardMap` lattice with one level of
incremental refinement: any base cell can be *split* into a finer
sub-lattice (via :meth:`~repro.service.sharding.ShardMap.subdivide`),
each sub-cell becoming its own shard with its own, smaller HST. Routing
keys are strings — ``"s3"`` for base cell 3, ``"s3/1"`` for sub-cell 1
of a split cell — and a *family* (a base cell plus its sub-shards) always
lives on one worker, so a task's whole fallback chain is served locally.

**Mid-stream consistency.** A split only re-lattices *future* traffic:
every event in the split cell routes to its sub-shard, while the parent
shard stays alive to drain the worker pool it accumulated before the
split. A task keyed to a sub-shard therefore probes a *chain* — its
sub-shard first, the parent as fallback — the classic double-read during
resharding. The chain depends only on the key (:func:`fallback_chain`),
so routing hands out keys and the shard host derives each key's chain
once. The parent never gains workers after the split, so it empties
monotonically.

**Policy.** :class:`HotShardBalancer` watches per-family task throughput
over a rolling window. A family taking more than ``split_share`` of the
window's traffic gets its cell split (finer lattice, smaller trees,
cheaper per-task work); otherwise, if one worker carries
``migrate_imbalance`` times its fair share, its hottest family migrates
to the least-loaded worker via snapshot + restore. Decisions are pure
functions of routed-event counts, so a seeded replay makes the same
decisions at the same points in the stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..service.sharding import ShardMap

__all__ = ["ClusterRouter", "BalancerConfig", "HotShardBalancer", "fallback_chain"]


def _base_key(base_id: int) -> str:
    return f"s{base_id}"


def _sub_key(base_id: int, sub_id: int) -> str:
    return f"s{base_id}/{sub_id}"


def family_of(key: str) -> int:
    """Base cell id of a routing key (``"s3/1"`` and ``"s3"`` -> 3)."""
    return int(key[1:].split("/", 1)[0])


def fallback_chain(key: str) -> tuple[str, ...]:
    """The shards a task routed to ``key`` probes, in order.

    A split sub-shard falls back to its draining parent (``"s3/1"`` ->
    ``("s3/1", "s3")``); a base cell is its own chain (``"s3"`` ->
    ``("s3",)``).
    """
    parent, split, _ = key.partition("/")
    return (key, parent) if split else (key,)


def key_order(key: str) -> tuple[int, int]:
    """Sort value putting parents before their sub-shards, cells in order."""
    head, _, tail = key[1:].partition("/")
    return int(head), int(tail) if tail else -1


class ClusterRouter:
    """Base-lattice routing plus per-cell sub-lattices for split cells."""

    def __init__(self, shard_map: ShardMap) -> None:
        self.base = shard_map
        self.splits: dict[int, ShardMap] = {}

    # ------------------------------------------------------------------ #
    # topology                                                            #
    # ------------------------------------------------------------------ #

    def keys(self) -> list[str]:
        """All live shard keys (split parents included), sorted."""
        out = []
        for base_id in range(self.base.n_shards):
            out.append(_base_key(base_id))
            sub = self.splits.get(base_id)
            if sub is not None:
                out.extend(
                    _sub_key(base_id, j) for j in range(sub.n_shards)
                )
        return out

    def family_keys(self, base_id: int) -> list[str]:
        """Keys of one family: the base cell plus its sub-shards."""
        keys = [_base_key(base_id)]
        sub = self.splits.get(base_id)
        if sub is not None:
            keys.extend(_sub_key(base_id, j) for j in range(sub.n_shards))
        return keys

    def is_split(self, base_id: int) -> bool:
        return base_id in self.splits

    def shard_box(self, key: str):
        """The cell (or sub-cell) of a routing key as a ``Box``."""
        head, _, tail = key[1:].partition("/")
        base_id = int(head)
        if not tail:
            return self.base.shard_box(base_id)
        return self.splits[base_id].shard_box(int(tail))

    def split(self, base_id: int, nx: int, ny: int | None = None) -> list[str]:
        """Refine one base cell into an ``nx x ny`` sub-lattice.

        Returns the new sub-shard keys. Splitting an already-split cell is
        rejected — one refinement level keeps fallback chains length two.
        """
        if base_id in self.splits:
            raise ValueError(f"cell {base_id} is already split")
        self.splits[base_id] = self.base.subdivide(base_id, nx, ny)
        sub = self.splits[base_id]
        return [_sub_key(base_id, j) for j in range(sub.n_shards)]

    # ------------------------------------------------------------------ #
    # routing                                                             #
    # ------------------------------------------------------------------ #

    def route_many(self, locations) -> tuple[np.ndarray, np.ndarray]:
        """Columnar routing of ``(n, 2)`` points: each row's family (its
        base cell) and its key's index in :meth:`family_keys` of that
        family.

        Index 0 is the base cell ``"s<i>"``; in a split cell, index
        ``j + 1`` is the sub-shard ``"s<i>/<j>"`` (its
        :func:`fallback_chain` adds the draining parent).
        """
        families = self.base.shard_of_many(locations)
        index = np.zeros(len(families), dtype=np.intp)
        for base_id, sub in self.splits.items():
            rows = np.flatnonzero(families == base_id)
            if len(rows):
                index[rows] = sub.shard_of_many(np.asarray(locations)[rows]) + 1
        return families, index


@dataclass(frozen=True)
class BalancerConfig:
    """Knobs of the hot-shard policy.

    ``window`` events between decisions; a family above ``split_share`` of
    the window's tasks is split into a ``split_nx ** 2`` sub-lattice; a
    worker above ``migrate_imbalance`` times the mean load sheds its
    hottest family. ``min_tasks`` guards against deciding on noise.
    """

    window: int = 4096
    min_tasks: int = 64
    split_share: float = 0.5
    split_nx: int = 2
    migrate_imbalance: float = 1.5

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.min_tasks < 1:
            raise ValueError(f"min_tasks must be >= 1, got {self.min_tasks}")
        if not 0.0 < self.split_share <= 1.0:
            raise ValueError("split_share must lie in (0, 1]")
        if self.split_nx < 2:
            raise ValueError(f"split_nx must be >= 2, got {self.split_nx}")
        if self.migrate_imbalance <= 1.0:
            raise ValueError("migrate_imbalance must exceed 1.0")


class HotShardBalancer:
    """Rolling per-family throughput tracker and rebalancing policy."""

    def __init__(self, config: BalancerConfig | None = None) -> None:
        self.config = config or BalancerConfig()
        self._counts: dict[int, int] = {}
        self._tasks = 0
        self.events_seen = 0

    @property
    def window_full(self) -> bool:
        """Whether enough events accumulated for a decision round."""
        return self.events_seen >= self.config.window

    def observe(self, primary_key: str, is_task: bool) -> None:
        """Record one routed event against its family."""
        self.events_seen += 1
        if is_task:
            fam = family_of(primary_key)
            self._counts[fam] = self._counts.get(fam, 0) + 1
            self._tasks += 1

    def decide(self, router: ClusterRouter, ownership: dict, owners: list) -> list[tuple]:
        """Actions for the window just ended; resets the window.

        Returns at most one action — ``("split", base_id)`` or
        ``("migrate", base_id, dst_owner)``. ``ownership`` maps family id
        to its owner and ``owners`` lists every owner that may take a
        family; ties break on position in that list.
        """
        counts, tasks = self._counts, self._tasks
        self._counts, self._tasks, self.events_seen = {}, 0, 0
        if tasks < self.config.min_tasks or not counts:
            return []
        # hottest family, deterministic tie-break on the lower id
        hot_fam = min(counts, key=lambda f: (-counts[f], f))
        if (
            counts[hot_fam] / tasks >= self.config.split_share
            and not router.is_split(hot_fam)
        ):
            return [("split", hot_fam)]
        if len(owners) < 2:
            return []
        rank = {w: i for i, w in enumerate(owners)}
        loads = dict.fromkeys(owners, 0)
        for fam, n in counts.items():
            # an owner missing from the list (a peer lost since) has no load
            if ownership[fam] in loads:
                loads[ownership[fam]] += n
        busiest = min(owners, key=lambda w: (-loads[w], rank[w]))
        coolest = min(owners, key=lambda w: (loads[w], rank[w]))
        if loads[busiest] * len(owners) < self.config.migrate_imbalance * tasks:
            return []
        movable = [
            f for f, w in ownership.items() if w == busiest and counts.get(f)
        ]
        if not movable or busiest == coolest:
            return []
        hot = min(movable, key=lambda f: (-counts[f], f))
        # moving the whole hot family must actually help, not just swap
        # the imbalance to the target owner
        if loads[coolest] + counts[hot] >= loads[busiest]:
            return []
        return [("migrate", hot, coolest)]

"""One shard: a published HST, its mechanism, ledger and matching server.

A :class:`ShardServer` bundles everything one shard of the region needs to
serve traffic end to end:

* the *published* artifacts — its predefined-point HST
  (:func:`~repro.crowdsourcing.server.publish_tree` over the shard's box);
* the *client side* — a :class:`~repro.privacy.tree_mechanism.TreeMechanism`
  that obfuscates snapped leaves before anything crosses the trust
  boundary, with worker cohorts going through the batched
  :meth:`~repro.privacy.tree_mechanism.TreeMechanism.obfuscate_points_batch`
  path and every registration charged to a per-shard
  :class:`~repro.privacy.budget.PrivacyBudgetLedger`;
* the *server side* — a streaming
  :class:`~repro.crowdsourcing.server.MatchingServer`
  (``allow_late_registration=True``) running Algorithm 4 on reports only.

The class structure mirrors the paper's trust boundary: ``server`` never
sees a coordinate, only obfuscated leaf indices produced here — a cohort
as (worker id, leaf) columns, a task as a
:class:`~repro.crowdsourcing.entities.TaskReport`.
"""

from __future__ import annotations

import time

import numpy as np

from ..crowdsourcing.entities import TaskReport
from ..crowdsourcing.server import MatchingServer, publish_tree
from ..geometry.box import Box
from ..hst.paths import tree_distance_for_level
from ..hst.serialize import hst_from_dict, hst_to_dict
from ..privacy.budget import BudgetExceededError, PrivacyBudgetLedger
from ..privacy.tree_mechanism import TreeMechanism
from ..utils import ensure_rng
from .metrics import ShardMetrics, ShardSnapshot

__all__ = ["ShardServer"]


class ShardServer:
    """Self-contained assignment service for one shard cell.

    Parameters
    ----------
    shard_id, box:
        The shard's routing key (``"s<i>"``, or ``"s<i>/<j>"`` for a
        split sub-shard) and its cell of the region.
    grid_nx:
        Side of the shard's predefined-point lattice (``grid_nx**2``
        points; the HST is built over them at construction).
    epsilon:
        Geo-I budget spent per report on this shard's tree.
    budget_capacity:
        Cumulative epsilon cap per worker, enforced by the shard ledger.
    seed:
        Drives the HST build, the mechanism and task-report sampling.
    """

    def __init__(
        self,
        shard_id: str,
        box: Box,
        grid_nx: int = 16,
        epsilon: float = 0.5,
        budget_capacity: float = 2.0,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        rng = ensure_rng(seed)
        self.shard_id = shard_id
        self.box = box
        self.tree = publish_tree(box, grid_nx, seed=rng)
        self.mechanism = TreeMechanism(self.tree, epsilon, seed=rng)
        self.ledger = PrivacyBudgetLedger(budget_capacity)
        self.server = MatchingServer(self.tree, allow_late_registration=True)
        self.metrics = ShardMetrics(shard_id)
        self._rng = rng

    @property
    def epsilon(self) -> float:
        return self.mechanism.epsilon

    @property
    def available_workers(self) -> int:
        return self.server.available_workers

    # ------------------------------------------------------------------ #
    # registration (batched client side)                                  #
    # ------------------------------------------------------------------ #

    def register_cohort(self, worker_ids, locations) -> None:
        """Register a worker cohort through the batched privacy path.

        Snaps all true locations to predefined points in one query,
        obfuscates all leaves in one mechanism call, spends ``epsilon``
        per worker on the shard ledger (all-or-nothing), and registers
        the reports with the matching server as two columns (worker ids,
        leaf indices). Each kernel picks its plain-Python or numpy form
        from the cohort's size. The ids are checked once, here; the
        server takes the checked cohort as it is.
        """
        # snap_many validates the locations: one conversion per cohort
        snapped = self.tree.snap_index.snap_many(locations)
        ids = [int(w) for w in worker_ids]
        if len(ids) != len(snapped):
            raise ValueError("need one worker id per location")
        if not ids:
            return
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate worker ids within a cohort")
        already = [w for w in ids if self.server.is_registered(w)]
        if already:
            # checked before the ledger spend so a rejected cohort cannot
            # leave budget charged for registrations that never happened
            raise ValueError(f"workers already registered: {already[:5]}")
        leaves = self.mechanism.obfuscate_points_batch(snapped, self._rng)
        self.ledger.spend_batch(ids, self.epsilon)
        self.server._admit_cohort(ids, leaves.tolist())
        self.metrics.record_cohort(len(ids))

    # ------------------------------------------------------------------ #
    # serving                                                             #
    # ------------------------------------------------------------------ #

    def submit_task(
        self,
        task_id: int,
        location,
        *,
        record_miss: bool | ShardMetrics = True,
        latency_offset: float = 0.0,
    ) -> int | None:
        """Encode, obfuscate and match one arriving task.

        Returns the assigned (global) worker id or ``None``; wall-clock
        matching latency and the reported assignment distance go into
        :attr:`metrics`. Two knobs serve the mesh's split-shard
        fallback chain, which tries several shards for one task:
        ``record_miss`` says where an empty pool's unassigned metric goes
        — this shard (``True``), nowhere (``False``: a later probe may
        still serve the task) or the given recorder (the chain's last
        probe charges its primary's, so a full miss is recorded once and
        timed exactly like a hit) — and ``latency_offset`` adds the time
        already spent probing earlier shards in the chain, so the
        recorded latency covers the task's full serving time.

        The obfuscation goes through the *same* entry point as cohort
        registration — :meth:`~repro.privacy.tree_mechanism
        .TreeMechanism.obfuscate_points_batch` with a batch of one, which
        runs the batch kernel's plain-Python form, as small cohorts do —
        so batch and single-event reports come from one stream with one
        draw layout.
        """
        point = self.tree.snap_index.snap(location)
        leaf = self.mechanism.obfuscate_points_batch([point], self._rng)[0]
        report = TaskReport(task_id=task_id, leaf=int(leaf))
        start = time.perf_counter()
        found = self.server.submit_task_detailed(report)
        latency = time.perf_counter() - start + latency_offset
        if found is None:
            if record_miss is True:
                self.metrics.record_unassigned(latency)
            elif record_miss is not False:
                record_miss.record_unassigned(latency)
            return None
        worker_id, level = found
        reported = tree_distance_for_level(level) / self.tree.metric_scale
        self.metrics.record_assignment(latency, reported)
        return worker_id

    def snapshot(self) -> ShardSnapshot:
        """Freeze this shard's metrics, ledger audit included."""
        return self.metrics.snapshot(epsilon=self.epsilon, ledger=self.ledger)

    def report_row(self) -> dict:
        """This shard's row of a service report.

        The frozen :meth:`snapshot` plus what the service-wide aggregates
        pool across shards: the raw latency samples (quantiles don't
        average) and the exact reported-distance total and count (one
        distance per assigned task).
        """
        metrics = self.metrics
        return {
            "snapshot": self.snapshot(),
            "latencies_s": list(metrics.latencies_s),
            "distance_total": metrics.reported_distance_total,
            "distance_count": metrics.tasks_assigned,
        }

    # ------------------------------------------------------------------ #
    # checkpointing                                                       #
    # ------------------------------------------------------------------ #

    def export_state(self) -> dict:
        """JSON-ready dump of everything this shard is.

        The raw parts behind the versioned snapshot wire format
        (:mod:`repro.cluster.snapshot`): the published tree (via
        :func:`~repro.hst.serialize.hst_to_dict`), the ledger's cap
        (``budget_capacity``), the matcher state (registrations,
        ``built_at`` and consumed slots — no decision log: the shard's
        callers keep the decisions it returns), the metrics recorder, and
        the client-side RNG state. The ledger itself does not travel:
        :meth:`register_cohort` is its only charger, one ``epsilon`` per
        registration, so :meth:`from_state` rebuilds it from the
        registrations. It grows with the registered population, not with
        the task count. Restoring via :meth:`from_state` and replaying
        the same event suffix reproduces the exact assignments of an
        uninterrupted run — the RNG state makes the obfuscation draws
        bit-identical.
        """
        self._check_ledger()
        return {
            "shard_id": self.shard_id,
            "box": [self.box.xmin, self.box.ymin, self.box.xmax, self.box.ymax],
            "epsilon": self.epsilon,
            "budget_capacity": self.ledger.capacity,
            "tree": hst_to_dict(self.tree),
            "server": self.server.export_state(),
            "metrics": self.metrics.to_dict(),
            "rng_state": self._rng.bit_generator.state,
        }

    def _check_ledger(self) -> None:
        """Refuse to export a ledger the restore would not rebuild: it
        must hold exactly one spend per registration (O(1) counts)."""
        n = self.server.registered_workers
        spends = self.ledger.history_len()
        if spends != n or self.ledger.principals != n:
            raise RuntimeError(
                f"shard {self.shard_id!r} ledger holds {spends} spends over "
                f"{self.ledger.principals} principals for {n} registrations; "
                "a snapshot rebuilds it as one spend per registration"
            )

    def checkpoint_cursor(self) -> dict:
        """Pure-value cursor marking this shard's position for delta export.

        Captures only counts and tiny value markers (no object
        references), so a coordinator can hold cursors for checkpoints
        that are long gone and a worker can answer "what changed since
        checkpoint N" without having retained checkpoint N itself.
        """
        return {
            "server": self.server.cursor(),
            "metrics": self.metrics.cursor(),
        }

    def export_delta(self, cursor: dict) -> dict:
        """Changes since ``cursor`` — the delta half of a v6 snapshot.

        Everything mutable on the serving path is append-only or
        dirty-tracked (registrations, consumed matcher slots, latency
        reservoir suffixes), so the export is O(changes), not O(shard).
        The published tree, box, epsilon and budget cap are immutable and
        never travel in a delta; the ledger is rebuilt on restore (see
        :meth:`export_state`); the RNG state is a few integers and
        travels whole.
        """
        self._check_ledger()
        return {
            "rng_state": self._rng.bit_generator.state,
            "server": self.server.export_delta(cursor["server"]),
            "metrics": self.metrics.export_delta(cursor["metrics"]),
        }

    @staticmethod
    def compose_state(base: dict, delta: dict) -> dict:
        """Fold an :meth:`export_delta` payload into an
        :meth:`export_state` payload, returning the child checkpoint's
        :meth:`export_state` form bit-identically."""
        return {
            "shard_id": base["shard_id"],
            "box": base["box"],
            "epsilon": base["epsilon"],
            "budget_capacity": base["budget_capacity"],
            "tree": base["tree"],
            "server": MatchingServer.compose_dict(base["server"], delta["server"]),
            "metrics": ShardMetrics.compose_dict(base["metrics"], delta["metrics"]),
            "rng_state": delta["rng_state"],
        }

    @classmethod
    def from_state(cls, payload: dict) -> "ShardServer":
        """Reassemble a shard from :meth:`export_state` output.

        Unlike the constructor this never rebuilds the HST — the published
        tree is part of the state — so a restore is cheap enough for the
        failover hot path. The ledger is rebuilt with one spend per
        registration, in registration order: the additions
        :meth:`register_cohort` made, so its balances, history and every
        report field come back bit-identical.
        """
        missing = {
            "shard_id",
            "box",
            "epsilon",
            "budget_capacity",
            "tree",
            "server",
            "metrics",
            "rng_state",
        } - set(payload)
        if missing:
            raise ValueError(f"shard payload missing fields: {sorted(missing)}")
        shard = cls.__new__(cls)
        shard.shard_id = payload["shard_id"]
        shard.box = Box(*(float(v) for v in payload["box"]))
        shard.tree = hst_from_dict(payload["tree"], validate=False)
        # seed irrelevant: the snapshot state replaces it wholesale just
        # below — seeding keeps even the transient value deterministic
        rng = np.random.default_rng(0)
        state = dict(payload["rng_state"])
        expected = rng.bit_generator.state["bit_generator"]
        if state.get("bit_generator") != expected:
            raise ValueError(
                f"snapshot RNG is {state.get('bit_generator')!r}; this "
                f"runtime restores only {expected!r} streams"
            )
        rng.bit_generator.state = state
        shard._rng = rng
        shard.mechanism = TreeMechanism(
            shard.tree, float(payload["epsilon"]), seed=rng
        )
        shard.server = MatchingServer.from_state(
            shard.tree, payload["server"], allow_late_registration=True
        )
        shard.ledger = PrivacyBudgetLedger(float(payload["budget_capacity"]))
        try:
            shard.ledger.spend_batch(shard.server.registered_ids, shard.epsilon)
        except BudgetExceededError as err:
            raise ValueError(f"registrations overspend the budget cap: {err}") from err
        shard.metrics = ShardMetrics.from_dict(payload["metrics"])
        return shard

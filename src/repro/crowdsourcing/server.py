"""The untrusted server's side of the workflow (paper Fig. 1, steps 1 & 4).

The server owns two jobs:

1. **Publication** — pick the predefined point set for the service region
   and build/publish the HST over it (:func:`publish_tree`). Both are
   public artifacts; they encode no user data.
2. **Assignment** — accept obfuscated reports and match each arriving task
   immediately (:class:`MatchingServer`). The server types only accept
   :class:`~repro.crowdsourcing.entities.WorkerReport` /
   :class:`~repro.crowdsourcing.entities.TaskReport` payloads, or a cohort
   of reports as (worker id, leaf index) columns, so true locations cannot
   reach this module by construction.

The experiment pipelines inline this logic for speed; this class is the
reference implementation that the examples and integration tests exercise.
"""

from __future__ import annotations

import operator
from itertools import islice

import numpy as np

from ..geometry.box import Box
from ..geometry.grid import uniform_grid
from ..hst.build import build_hst
from ..hst.tree import HST
from ..matching.hst_greedy import HSTGreedyMatcher
from ..matching.leaf_trie import check_leaves
from ..matching.types import Assignment, MatchingResult
from .entities import TaskReport, WorkerReport

__all__ = ["make_predefined_points", "publish_tree", "MatchingServer"]


def make_predefined_points(region: Box, grid_nx: int, grid_ny: int | None = None):
    """The server's predefined point set: a uniform lattice over the region.

    A lattice keeps the announcement compact (two integers and a box) and
    bounds the snapping error by half a cell diagonal; the paper leaves the
    choice of predefined points open.
    """
    return uniform_grid(region, grid_nx, grid_ny)


def publish_tree(
    region: Box,
    grid_nx: int = 32,
    grid_ny: int | None = None,
    seed: int | np.random.Generator | None = None,
) -> HST:
    """Construct the HST the server publishes for a service region."""
    return build_hst(make_predefined_points(region, grid_nx, grid_ny), seed=seed)


class MatchingServer:
    """Online assignment over obfuscated HST reports.

    Workers register up front; tasks arrive one by one through
    :meth:`submit_task` and are matched immediately (Algorithm 4). The
    accumulated matching is exposed as :attr:`result` with *reported* leaf
    distances only — converting to true travel distances requires the true
    coordinates, which the server never has (pipelines do that outside).

    A report's leaf is a leaf index (one int, see
    :attr:`~repro.hst.tree.HST.leaf_index`). Registrations are kept in
    registration order, worker id to leaf; :meth:`register_cohort` takes
    a cohort as two columns (worker ids, leaves) and
    :meth:`register_worker` is a cohort of one.

    The paper's OMBM model fixes the worker pool before the first task, so
    registration closes once tasks arrive. The serving layer
    (:mod:`repro.service`) relaxes that: with
    ``allow_late_registration=True`` workers may keep joining between
    tasks, each insertion going straight into the live matcher trie.
    """

    def __init__(self, tree: HST, *, allow_late_registration: bool = False) -> None:
        self.tree = tree
        self.allow_late_registration = allow_late_registration
        # worker id -> reported leaf, in registration order
        self._leaves: dict[int, int] = {}
        # slot -> worker id, once the matcher is built
        self._ids: list[int] = []
        self._matcher: HSTGreedyMatcher | None = None
        # append-only consumption log (slot per assignment) and the
        # registration count at lazy matcher build — the two facts delta
        # checkpoints need that the trie itself doesn't keep
        self._consumed: list[int] = []
        self._built_at: int | None = None
        self.result = MatchingResult()

    def register_worker(self, report: WorkerReport) -> None:
        """Accept a worker's obfuscated registration."""
        if not isinstance(report, WorkerReport):
            raise TypeError("server only accepts WorkerReport payloads")
        if report.leaf is None:
            raise ValueError("the HST server needs leaf-encoded reports")
        self.register_cohort([report.worker_id], [report.leaf])

    def register_cohort(self, worker_ids, leaves) -> None:
        """Accept a cohort of obfuscated registrations as two columns.

        All or nothing: a cohort with a bad leaf or an already registered
        worker is refused whole.
        """
        ids = [operator.index(w) for w in worker_ids]
        leaves = check_leaves(leaves, self.tree.depth, self.tree.branching)
        if len(ids) != len(leaves):
            raise ValueError("need one leaf per worker id")
        if self._matcher is not None and not self.allow_late_registration:
            raise RuntimeError("registration is closed once tasks arrive")
        already = [w for w in ids if w in self._leaves]
        if already:
            raise ValueError(f"worker {already[0]} already registered")
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate worker ids within a cohort")
        self._admit_cohort(ids, leaves)

    def _admit_cohort(self, ids: list[int], leaves: list[int]) -> None:
        """:meth:`register_cohort` on a cohort its caller already checked:
        int ids, distinct and not registered, one valid leaf each, and
        registration open (like
        :meth:`~repro.service.shard.ShardServer.register_cohort`, whose
        leaves come straight from the mechanism)."""
        self._leaves.update(zip(ids, leaves))
        if self._matcher is not None:
            self._matcher._admit(leaves)
            self._ids.extend(ids)

    @property
    def registered_workers(self) -> int:
        return len(self._leaves)

    @property
    def registered_ids(self) -> list[int]:
        """Worker ids with a registration on record, registration-ordered."""
        return list(self._leaves)

    def is_registered(self, worker_id: int) -> bool:
        """Whether ``worker_id`` has a registration on record."""
        return worker_id in self._leaves

    @property
    def available_workers(self) -> int:
        """Workers registered and not yet consumed by an assignment."""
        if self._matcher is None:
            return len(self._leaves)
        return self._matcher.available

    # ------------------------------------------------------------------ #
    # serving (Algorithm 4)                                               #
    # ------------------------------------------------------------------ #

    def submit_task(self, report: TaskReport) -> int | None:
        """Match an arriving task to the nearest available worker's report.

        Returns the assigned worker id (or ``None`` if the pool is empty)
        and records the pair in :attr:`result`. A thin wrapper: the whole
        matching path — validation, lazy matcher build, assignment and
        result bookkeeping — lives in :meth:`submit_task_detailed`, which
        is the single implementation.
        """
        found = self.submit_task_detailed(report)
        return None if found is None else found[0]

    def submit_task_detailed(self, report: TaskReport) -> tuple[int, int] | None:
        """Like :meth:`submit_task`, but returns ``(worker_id, lca_level)``.

        The one and only submission path (:meth:`submit_task` delegates
        here). The LCA level of the matched pair determines the *reported*
        tree distance — the only distance signal the server legitimately
        has — which the serving layer converts to metric units for its
        assignment-distance telemetry.
        """
        if not isinstance(report, TaskReport):
            raise TypeError("server only accepts TaskReport payloads")
        if report.leaf is None:
            raise ValueError("the HST server needs leaf-encoded reports")
        if self._matcher is None:
            # slots follow worker-id order at the build, then registration
            self._build_matcher(sorted(self._leaves))
            self._built_at = len(self._ids)
        found = self._matcher.assign(report.leaf)
        if found is None:
            self.result.unassigned_tasks.append(report.task_id)
            return None
        slot, level = found
        self._consumed.append(slot)
        worker_id = self._ids[slot]
        self.result.assignments.append(
            Assignment(task=report.task_id, worker=worker_id)
        )
        return worker_id, level

    def _build_matcher(self, slot_ids: list[int]) -> None:
        """Build the matcher trie with one slot per worker id, in order,
        from registrations already checked on the way in."""
        self._ids = slot_ids
        self._matcher = HSTGreedyMatcher(self.tree.depth, self.tree.branching, ())
        self._matcher._admit([self._leaves[i] for i in slot_ids])

    # ------------------------------------------------------------------ #
    # checkpointing                                                       #
    # ------------------------------------------------------------------ #

    def export_state(self) -> dict:
        """JSON-ready matcher state for shard snapshots.

        Captures registrations as two int columns (``worker_ids`` and
        ``leaves``, registration order), the slot-id table and consumed
        slots of the live matcher trie, and the accumulated result —
        everything :meth:`from_state` needs to resume serving with
        identical assignment decisions (the trie's tie-breaking is
        insertion-ordered, and slots are inserted in increasing order, so
        rebuilding all slots and removing the consumed ones reproduces the
        exact structure).
        """
        # every unavailable slot got there via exactly one assignment (the
        # serving path never releases), so the consumption log *is* the
        # consumed set — sorted to keep the historical export shape
        consumed = sorted(self._consumed)
        return {
            "allow_late_registration": self.allow_late_registration,
            "worker_ids": list(self._leaves),
            "leaves": list(self._leaves.values()),
            "slot_ids": None if self._matcher is None else list(self._ids),
            "consumed_slots": consumed,
            "assignments": [
                [a.task, a.worker] for a in self.result.assignments
            ],
            "unassigned_tasks": list(self.result.unassigned_tasks),
        }

    def cursor(self) -> dict:
        """Pure-value checkpoint cursor: counts of the append-only logs
        plus whether the matcher trie existed at cursor time."""
        return {
            "workers": len(self._leaves),
            "consumed": len(self._consumed),
            "assignments": len(self.result.assignments),
            "unassigned": len(self.result.unassigned_tasks),
            "matcher": self._matcher is not None,
        }

    def export_delta(self, cursor: dict) -> dict:
        """Changes since ``cursor`` (non-destructive).

        Registrations (both columns), assignments, unassigned tasks and
        the consumption log are all append-only, so each travels as a
        suffix. ``built_at`` is the registration count at lazy matcher
        build when the build happened inside this window (the composer
        needs it to reproduce the sorted-then-appended slot table), else
        ``None``.
        """
        start = int(cursor["workers"])
        built_at = None
        if not cursor["matcher"] and self._matcher is not None:
            built_at = self._built_at
        return {
            "worker_ids": list(islice(self._leaves, start, None)),
            "leaves": list(islice(self._leaves.values(), start, None)),
            "built_at": built_at,
            "consumed": list(self._consumed[int(cursor["consumed"]) :]),
            "assignments": [
                [a.task, a.worker]
                for a in self.result.assignments[int(cursor["assignments"]) :]
            ],
            "unassigned_tasks": list(
                self.result.unassigned_tasks[int(cursor["unassigned"]) :]
            ),
        }

    @staticmethod
    def compose_dict(base: dict, delta: dict) -> dict:
        """Fold an :meth:`export_delta` payload into an
        :meth:`export_state` payload, returning the child checkpoint's
        :meth:`export_state` form.

        The registration columns concatenate. Slot-table rule: if the
        parent already had a matcher, every new registration was appended
        to the table in registration order; if the matcher was built
        inside the window, the table is the sorted prefix of the first
        ``built_at`` worker ids followed by the rest in registration
        order — exactly the live build's layout.
        """
        worker_ids = list(base["worker_ids"]) + list(delta["worker_ids"])
        if base["slot_ids"] is not None:
            slot_ids = list(base["slot_ids"]) + list(delta["worker_ids"])
        elif delta["built_at"] is not None:
            built_at = int(delta["built_at"])
            slot_ids = sorted(worker_ids[:built_at]) + worker_ids[built_at:]
        else:
            slot_ids = None
        consumed = sorted(
            {int(s) for s in base["consumed_slots"]}
            | {int(s) for s in delta["consumed"]}
        )
        return {
            "allow_late_registration": base["allow_late_registration"],
            "worker_ids": worker_ids,
            "leaves": list(base["leaves"]) + list(delta["leaves"]),
            "slot_ids": slot_ids,
            "consumed_slots": consumed,
            "assignments": [list(entry) for entry in base["assignments"]]
            + [list(entry) for entry in delta["assignments"]],
            "unassigned_tasks": list(base["unassigned_tasks"])
            + list(delta["unassigned_tasks"]),
        }

    @classmethod
    def from_state(cls, tree: HST, payload: dict) -> "MatchingServer":
        """Rebuild a server exported by :meth:`export_state` over ``tree``.

        Restore is where leaves come back from outside, so it checks the
        section once: every leaf in ``[0, c**D)``, registrations unique,
        the slot table a permutation of them, consumed slots unique and
        inside the table, and no consumed slot without a table. Raises
        ``ValueError`` otherwise.
        """
        missing = {
            "allow_late_registration",
            "worker_ids",
            "leaves",
            "slot_ids",
            "consumed_slots",
            "assignments",
            "unassigned_tasks",
        } - set(payload)
        if missing:
            raise ValueError(f"server payload missing fields: {sorted(missing)}")
        server = cls(
            tree,
            allow_late_registration=bool(payload["allow_late_registration"]),
        )
        worker_ids = [int(w) for w in payload["worker_ids"]]
        leaves = check_leaves(payload["leaves"], tree.depth, tree.branching)
        if len(worker_ids) != len(leaves):
            raise ValueError("registration columns differ in length")
        server._leaves = dict(zip(worker_ids, leaves))
        if len(server._leaves) != len(worker_ids):
            raise ValueError("a worker is registered twice")
        consumed = [int(s) for s in payload["consumed_slots"]]
        slot_ids = payload["slot_ids"]
        if slot_ids is None:
            if consumed:
                raise ValueError("consumed slots without a slot table")
        else:
            ids = [int(i) for i in slot_ids]
            if len(ids) != len(worker_ids) or set(ids) != server._leaves.keys():
                raise ValueError("slot table is not a permutation of the registrations")
            if len(set(consumed)) != len(consumed):
                raise ValueError("a consumed slot is listed twice")
            if any(not 0 <= s < len(ids) for s in consumed):
                raise ValueError("a consumed slot lies outside the slot table")
            server._build_matcher(ids)
            for slot in consumed:
                server._matcher.remove_worker(slot)
        server._consumed = consumed
        server.result = MatchingResult(
            assignments=[
                Assignment(task=int(t), worker=int(w))
                for t, w in payload["assignments"]
            ],
            unassigned_tasks=[int(t) for t in payload["unassigned_tasks"]],
        )
        return server

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
    :meth:`submit_task` and are matched immediately (Algorithm 4).
    :meth:`submit_task` also appends each decision to :attr:`result`
    (the examples read the accumulated matching there, with *reported*
    leaf distances only — converting to true travel distances requires
    the true coordinates, which the server never has). The serving layer
    calls :meth:`submit_task_detailed`, which keeps no log: a serving
    shard's state is only what serving and restore read.

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
        # registration count at lazy matcher build — the two facts
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
        and records the decision in :attr:`result`. A thin wrapper: the
        whole matching path — validation, lazy matcher build and
        assignment — lives in :meth:`submit_task_detailed`, which is the
        single implementation.
        """
        found = self.submit_task_detailed(report)
        if found is None:
            self.result.unassigned_tasks.append(report.task_id)
            return None
        self.result.assignments.append(
            Assignment(task=report.task_id, worker=found[0])
        )
        return found[0]

    def submit_task_detailed(self, report: TaskReport) -> tuple[int, int] | None:
        """Like :meth:`submit_task`, but returns ``(worker_id, lca_level)``
        and leaves :attr:`result` alone.

        The one and only matching path (:meth:`submit_task` delegates
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
            self._build_matcher(len(self._leaves))
        found = self._matcher.assign(report.leaf)
        if found is None:
            return None
        slot, level = found
        self._consumed.append(slot)
        return self._ids[slot], level

    def _build_matcher(self, built_at: int) -> None:
        """Build the matcher trie from registrations already checked on
        the way in, as a build at the ``built_at``-th registration left
        it: one slot per worker, the first ``built_at`` in worker-id
        order, then the later ones in registration order (each was
        appended as it arrived)."""
        ids = list(self._leaves)
        self._ids = sorted(ids[:built_at]) + ids[built_at:]
        self._built_at = built_at
        self._matcher = HSTGreedyMatcher(self.tree.depth, self.tree.branching, ())
        self._matcher._admit([self._leaves[i] for i in self._ids])

    # ------------------------------------------------------------------ #
    # checkpointing                                                       #
    # ------------------------------------------------------------------ #

    def export_state(self) -> dict:
        """JSON-ready matcher state for shard snapshots.

        Captures registrations as two int columns (``worker_ids`` and
        ``leaves``, registration order), ``built_at`` — the registration
        count when the matcher trie was built, ``None`` before the first
        task — and the consumed slots of the live trie: everything
        :meth:`from_state` needs to resume serving with identical
        assignment decisions. The slot table is not stored: it is always
        the sorted first ``built_at`` worker ids followed by the rest in
        registration order, and the trie's tie-breaking is
        insertion-ordered with slots inserted in increasing order, so
        rebuilding all slots and removing the consumed ones reproduces
        the exact structure.
        """
        # every unavailable slot got there via exactly one assignment (the
        # serving path never releases), so the consumption log *is* the
        # consumed set — sorted to keep one export shape
        return {
            "worker_ids": list(self._leaves),
            "leaves": list(self._leaves.values()),
            "built_at": self._built_at,
            "consumed_slots": sorted(self._consumed),
        }

    def cursor(self) -> dict:
        """Pure-value checkpoint cursor: lengths of the append-only logs
        plus whether the matcher trie existed at cursor time."""
        return {
            "workers": len(self._leaves),
            "consumed": len(self._consumed),
            "matcher": self._matcher is not None,
        }

    def export_delta(self, cursor: dict) -> dict:
        """Changes since ``cursor`` (non-destructive).

        Registrations (both columns) and the consumption log are
        append-only, so each travels as a suffix. ``built_at`` is the
        registration count at lazy matcher build when the build happened
        inside this window, else ``None``.
        """
        # the suffix read from the end: O(new registrations), however
        # many came before the cursor
        new = len(self._leaves) - int(cursor["workers"])
        built_at = None
        if not cursor["matcher"] and self._matcher is not None:
            built_at = self._built_at
        return {
            "worker_ids": list(islice(reversed(self._leaves), new))[::-1],
            "leaves": list(islice(reversed(self._leaves.values()), new))[::-1],
            "built_at": built_at,
            "consumed": list(self._consumed[int(cursor["consumed"]) :]),
        }

    @staticmethod
    def compose_dict(base: dict, delta: dict) -> dict:
        """Fold an :meth:`export_delta` payload into an
        :meth:`export_state` payload, returning the child checkpoint's
        :meth:`export_state` form.

        The registration columns concatenate, the consumed slots merge,
        and ``built_at`` is the parent's, or the delta's when the matcher
        was built inside the window.
        """
        built_at = base["built_at"]
        if built_at is None:
            built_at = delta["built_at"]
        consumed = sorted(
            {int(s) for s in base["consumed_slots"]}
            | {int(s) for s in delta["consumed"]}
        )
        return {
            "worker_ids": list(base["worker_ids"]) + list(delta["worker_ids"]),
            "leaves": list(base["leaves"]) + list(delta["leaves"]),
            "built_at": built_at,
            "consumed_slots": consumed,
        }

    @classmethod
    def from_state(
        cls, tree: HST, payload: dict, *, allow_late_registration: bool = False
    ) -> "MatchingServer":
        """Rebuild a server exported by :meth:`export_state` over ``tree``.

        Restore is where leaves come back from outside, so it checks the
        section once: every leaf in ``[0, c**D)``, registrations unique,
        ``built_at`` inside ``[0, registrations]``, consumed slots unique
        and inside the slot table, and no consumed slot before the build.
        Raises ``ValueError`` otherwise. ``allow_late_registration`` is
        the constructor's.
        """
        missing = {"worker_ids", "leaves", "built_at", "consumed_slots"} - set(
            payload
        )
        if missing:
            raise ValueError(f"server payload missing fields: {sorted(missing)}")
        server = cls(tree, allow_late_registration=allow_late_registration)
        worker_ids = [int(w) for w in payload["worker_ids"]]
        leaves = check_leaves(payload["leaves"], tree.depth, tree.branching)
        if len(worker_ids) != len(leaves):
            raise ValueError("registration columns differ in length")
        server._leaves = dict(zip(worker_ids, leaves))
        if len(server._leaves) != len(worker_ids):
            raise ValueError("a worker is registered twice")
        consumed = [int(s) for s in payload["consumed_slots"]]
        built_at = payload["built_at"]
        if built_at is None:
            if consumed:
                raise ValueError("consumed slots without a matcher")
        else:
            built_at = operator.index(built_at)
            if not 0 <= built_at <= len(worker_ids):
                raise ValueError(
                    f"built_at {built_at} outside the {len(worker_ids)} registrations"
                )
            if len(set(consumed)) != len(consumed):
                raise ValueError("a consumed slot is listed twice")
            if any(not 0 <= s < len(worker_ids) for s in consumed):
                raise ValueError("a consumed slot lies outside the slot table")
            server._build_matcher(built_at)
            for slot in consumed:
                server._matcher.remove_worker(slot)
        server._consumed = consumed
        return server

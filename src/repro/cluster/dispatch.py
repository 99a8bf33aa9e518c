"""The family dispatch core: routing absorption and row journals.

The :class:`~repro.mesh.coordinator.MeshCoordinator` turns the arrival
stream into per-family row sequences: one row ``(key, id, [x, y],
is_task)`` per accepted event, keyed by the shard it routes to (a split
cell's sub-shard; the worker's
:class:`~repro.cluster.worker.ShardHost` derives the task fallback chain
from the key). Arrivals come in as columns (ids, locations, kinds, times
— the coordinator's ``ingest`` shape) and are admitted by the engine's
rule (:func:`~repro.cluster.worker.admit`). :class:`FamilyJournal` is
that core. Rows keep stream order within a family, and the worker's host
cuts cohorts per row exactly as the engine's does, which is what makes
mesh assignments bit-identical to the engine's. The journal also keeps
the mesh's simulation clock.

The journal doubles as the replay log. Every row is appended before it
is sent, and the send cursor counts in *absolute* stream positions, so
the two recovery disciplines both fall out of cursor arithmetic:

* **failover** rewinds a family's cursor to its checkpoint base — the
  retained suffix replays against a restored snapshot;
* **checkpoint** truncates one family's rows up to the send cursor its
  cut snapshotted at. The mesh's cuts run *behind* a pipelined
  scheduler while the caller keeps appending, so later rows keep their
  meaning because positions never renumber. A migration's cut truncates
  the same way.
"""

from __future__ import annotations

from .balancer import family_of
from .worker import admit, refusal

__all__ = ["FamilyJournal"]


class FamilyJournal:
    """Per-family row journals with absolute send/truncate cursors.

    Parameters
    ----------
    router:
        A :class:`~repro.cluster.balancer.ClusterRouter`; supplies the
        vectorized key routing and the family count.
    """

    def __init__(self, router) -> None:
        self.router = router
        n = router.base.n_shards
        self._rows: dict[int, list] = {fam: [] for fam in range(n)}
        #: absolute position of ``_rows[fam][0]`` (grows on truncation)
        self._base: dict[int, int] = {fam: 0 for fam in range(n)}
        #: absolute position of the next row to send
        self._sent: dict[int, int] = {fam: 0 for fam in range(n)}
        #: every task id ever absorbed, stream order
        self.task_order: list[int] = []
        #: worker and task ids seen, for duplicate rejection
        self.known_workers: set[int] = set()
        self.known_tasks: set[int] = set()
        #: the simulation clock: the latest time of an accepted event (a
        #: rejected duplicate never moves it)
        self.now = 0.0

    @property
    def families(self):
        """All family ids (base lattice cells)."""
        return self._rows.keys()

    # ------------------------------------------------------------------ #
    # absorption                                                          #
    # ------------------------------------------------------------------ #

    def absorb(self, ids, locations, is_task, times, observe=None) -> set[int]:
        """Route one chunk of arrivals into per-family rows; returns the
        touched family ids.

        Row ``i`` is a task when ``is_task[i]`` is true (``ids[i]`` is
        then its task id), else a worker. The columns come validated:
        ``locations`` an ``(n, 2)`` float array, ``ids`` ints,
        ``is_task`` bools and ``times`` floats. ``observe(key, is_task)``
        is the optional balancer tap. The accepted rows advance
        :attr:`now`; a repeated worker or task id raises ``ValueError``
        at its row, with the rows before it absorbed.
        """
        accepted = admit(self.known_workers, self.known_tasks, ids, is_task)
        locations = locations[:accepted]
        touched: set[int] = set()
        for key, event_id, location, task in zip(
            self.router.keys_of_many(locations), ids, locations.tolist(), is_task
        ):
            fam = family_of(key)
            touched.add(fam)
            self._rows[fam].append((key, event_id, location, task))
            if task:
                self.task_order.append(event_id)
            if observe is not None:
                observe(key, task)
        if accepted:
            self.now = max(self.now, max(times[:accepted]))
        if accepted < len(ids):
            raise refusal(ids, is_task, accepted, "the mesh")
        return touched

    # ------------------------------------------------------------------ #
    # cursors                                                             #
    # ------------------------------------------------------------------ #

    def end(self, fam: int) -> int:
        """Absolute position one past the last journaled row of ``fam``."""
        return self._base[fam] + len(self._rows[fam])

    def sent(self, fam: int) -> int:
        """Absolute position of the next row of ``fam`` to send: once its
        deliveries have returned, everything before it is applied."""
        return self._sent[fam]

    def ends(self) -> dict[int, int]:
        """Every family's :meth:`end` — the high-water marks a barrier,
        or a round of checkpoint cuts, captures."""
        return {fam: self.end(fam) for fam in self._rows}

    def take(self, fam: int, upto: int | None = None) -> list:
        """Pending rows of ``fam`` up to ``upto`` (absolute; ``None`` =
        everything journaled), advancing the send cursor past them.

        The cursor moves *before* the caller transmits: a failover
        triggered mid-send rewinds it and the journal itself re-serves
        the rows — delivery can fail, the log cannot.
        """
        stop = self.end(fam) if upto is None else min(upto, self.end(fam))
        start = max(self._sent[fam], self._base[fam])
        if stop <= start:
            return []
        base = self._base[fam]
        rows = self._rows[fam][start - base : stop - base]
        self._sent[fam] = stop
        return rows

    def rewind(self, fam: int) -> None:
        """Point the send cursor back at the checkpoint base: everything
        retained since the last truncation replays on the next take."""
        self._sent[fam] = self._base[fam]

    def truncate(self, fam: int, upto: int) -> int:
        """Drop ``fam``'s rows before ``upto`` (absolute); returns how many.

        Called once their effects are safely inside a snapshot. Positions
        are never renumbered — ``base`` advances instead — so cursors and
        high-water marks captured earlier stay valid.
        """
        dropped = max(min(upto, self.end(fam)) - self._base[fam], 0)
        del self._rows[fam][:dropped]
        self._base[fam] += dropped
        self._sent[fam] = max(self._sent[fam], self._base[fam])
        return dropped

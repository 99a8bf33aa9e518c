"""The family dispatch core: routing absorption and op journals.

The :class:`~repro.mesh.coordinator.MeshCoordinator` turns the arrival
stream into per-family op sequences: merged worker-cohort ops
(consecutive arrivals for one shard collapse into a single
``["w", key, ids, locations]``, kept open until a task can observe that
shard) and task ops carrying the full routing fallback chain. Arrivals
come in as columns (ids, locations, kinds, times — the coordinator's
``ingest`` shape), so absorbing a chunk builds no per-event object.
:class:`FamilyJournal` is that core. A cohort op stays open exactly as
long as the engine's per-event path would keep buffering, and the
worker's :class:`~repro.cluster.worker.ShardHost` cuts it per worker as
the engine's does, which is what makes mesh assignments bit-identical
to the engine's. The journal also keeps the mesh's simulation clock.

The journal doubles as the replay log. Every op is appended before it
is sent, and the send cursor counts in *absolute* stream positions, so
the two recovery disciplines both fall out of cursor arithmetic:

* **failover** rewinds a family's cursor to its checkpoint base — the
  retained suffix replays against a restored snapshot;
* **checkpoint** truncates one family's ops up to the send cursor its
  cut snapshotted at. The mesh's cuts run *behind* a pipelined
  scheduler while the caller keeps appending, so later ops keep their
  meaning because positions never renumber. A migration's cut truncates
  the same way.
"""

from __future__ import annotations

from .balancer import family_of

__all__ = ["FamilyJournal"]


class FamilyJournal:
    """Per-family op journals with absolute send/truncate cursors.

    Parameters
    ----------
    router:
        A :class:`~repro.cluster.balancer.ClusterRouter`; supplies the
        vectorized chain routing and the family count.
    """

    def __init__(self, router) -> None:
        self.router = router
        n = router.base.n_shards
        self._ops: dict[int, list] = {fam: [] for fam in range(n)}
        #: absolute position of ``_ops[fam][0]`` (grows on truncation)
        self._base: dict[int, int] = {fam: 0 for fam in range(n)}
        #: absolute position of the next op to send
        self._sent: dict[int, int] = {fam: 0 for fam in range(n)}
        #: every task id ever absorbed, stream order
        self.task_order: list[int] = []
        #: worker ids seen, for duplicate-registration rejection
        self.known_workers: set[int] = set()
        #: the simulation clock: the latest time of an accepted event (a
        #: rejected duplicate never moves it)
        self.now = 0.0

    @property
    def families(self):
        """All family ids (base lattice cells)."""
        return self._ops.keys()

    # ------------------------------------------------------------------ #
    # absorption                                                          #
    # ------------------------------------------------------------------ #

    def absorb(self, ids, locations, is_task, times, observe=None) -> set[int]:
        """Route one chunk of arrivals into per-family ops; returns the
        touched family ids.

        Row ``i`` is a task when ``is_task[i]`` is true (``ids[i]`` is
        then its task id), else a worker. The columns come validated:
        ``locations`` an ``(n, 2)`` float array, ``ids`` ints,
        ``is_task`` bools and ``times`` floats. Worker arrivals for one
        shard merge into a single cohort op that stays open (and keeps
        absorbing later arrivals) until a task touches any shard of its
        routing chain — the same cut-point rule as the engine's
        per-event path. ``observe(key, is_task)`` is the optional
        balancer tap. Each accepted event advances :attr:`now`; a
        repeated worker id raises ``ValueError`` at its row, with the
        rows before it absorbed.
        """
        chains = self.router.chains_of_many(locations)
        touched: set[int] = set()
        open_w: dict[str, list] = {}
        for event_id, location, task, at, chain in zip(
            ids, locations.tolist(), is_task, times, chains
        ):
            primary = chain[0]
            fam = family_of(primary)
            touched.add(fam)
            if task:
                # close cohort accumulation for every shard this task can
                # read, so no later-arriving worker becomes visible to it
                for key in chain:
                    open_w.pop(key, None)
                self._ops[fam].append(["t", chain, event_id, location])
                self.task_order.append(event_id)
            else:
                if event_id in self.known_workers:
                    raise ValueError(
                        f"worker id already registered with the mesh: {event_id}"
                    )
                self.known_workers.add(event_id)
                op = open_w.get(primary)
                if op is None:
                    op = ["w", primary, [], []]
                    open_w[primary] = op
                    self._ops[fam].append(op)
                op[2].append(event_id)
                op[3].append(location)
            if at > self.now:
                self.now = at
            if observe is not None:
                observe(primary, task)
        return touched

    # ------------------------------------------------------------------ #
    # cursors                                                             #
    # ------------------------------------------------------------------ #

    def end(self, fam: int) -> int:
        """Absolute position one past the last journaled op of ``fam``."""
        return self._base[fam] + len(self._ops[fam])

    def sent(self, fam: int) -> int:
        """Absolute position of the next op of ``fam`` to send: once its
        deliveries have returned, everything before it is applied."""
        return self._sent[fam]

    def ends(self) -> dict[int, int]:
        """Every family's :meth:`end` — the high-water marks a barrier,
        or a round of checkpoint cuts, captures."""
        return {fam: self.end(fam) for fam in self._ops}

    def take(self, fam: int, upto: int | None = None) -> list:
        """Pending ops of ``fam`` up to ``upto`` (absolute; ``None`` =
        everything journaled), advancing the send cursor past them.

        The cursor moves *before* the caller transmits: a failover
        triggered mid-send rewinds it and the journal itself re-serves
        the ops — delivery can fail, the log cannot.
        """
        stop = self.end(fam) if upto is None else min(upto, self.end(fam))
        start = max(self._sent[fam], self._base[fam])
        if stop <= start:
            return []
        base = self._base[fam]
        ops = self._ops[fam][start - base : stop - base]
        self._sent[fam] = stop
        return ops

    def rewind(self, fam: int) -> None:
        """Point the send cursor back at the checkpoint base: everything
        retained since the last truncation replays on the next take."""
        self._sent[fam] = self._base[fam]

    def truncate(self, fam: int, upto: int) -> int:
        """Drop ``fam``'s ops before ``upto`` (absolute); returns how many.

        Called once their effects are safely inside a snapshot. Positions
        are never renumbered — ``base`` advances instead — so cursors and
        high-water marks captured earlier stay valid.
        """
        dropped = max(min(upto, self.end(fam)) - self._base[fam], 0)
        del self._ops[fam][:dropped]
        self._base[fam] += dropped
        self._sent[fam] = max(self._sent[fam], self._base[fam])
        return dropped

"""The family dispatch core: routing absorption and row journals.

The :class:`~repro.mesh.coordinator.MeshCoordinator` turns the arrival
stream into per-family row sequences: one row per accepted event, in
the fixed-width :data:`EVENT_ROW_DTYPE` layout the mesh's ``events`` op
carries it in — the index of its shard key in the family's key table
(:meth:`~repro.cluster.balancer.ClusterRouter.family_keys`: the base
cell, or a split cell's sub-shard; the worker's
:class:`~repro.cluster.worker.ShardHost` derives the task fallback chain
from the key), its kind, its id and its location. Arrivals come in as
columns (ids, locations, kinds, times — the coordinator's ``ingest``
shape), are admitted by the engine's rule
(:func:`~repro.cluster.worker.admit`) and are routed and packed as
whole columns. :class:`FamilyJournal` is that core. Rows keep stream
order within a family, and the worker's host cuts cohorts per row
exactly as the engine's does, which is what makes mesh assignments
bit-identical to the engine's. The journal also keeps the mesh's
simulation clock.

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

import numpy as np

from .worker import RefusedRow, admit, refusal

__all__ = ["EVENT_ROW_DTYPE", "FamilyJournal"]

#: One journal row, byte for byte the row of a mesh ``events`` op
#: (:data:`~repro.gateway.protocol.MESH_EVENTS_TAG`): the index of the
#: row's shard key in its family's key table, the kind (0 a worker, 1 a
#: task), the id and the location, packed big-endian (29 bytes).
EVENT_ROW_DTYPE = np.dtype(
    [("key", ">u4"), ("kind", "u1"), ("id", ">i8"), ("x", ">f8"), ("y", ">f8")]
)

_I64_MIN = -(2**63)
_I64_MAX = 2**63 - 1

#: Rows a family's first buffer holds; buffers double from there.
_MIN_CAPACITY = 64


def _int64_ids(ids) -> tuple[np.ndarray, int]:
    """The leading ids that fit int64, as an int64 column, and how many
    that is (the row of the first id outside int64, or all of them)."""
    if isinstance(ids, np.ndarray):
        ids = ids.tolist()  # a uint64 column would wrap in the cast
    try:
        return np.array(ids, dtype=np.int64), len(ids)
    except OverflowError:
        cut = next(i for i, v in enumerate(ids) if not _I64_MIN <= v <= _I64_MAX)
        return np.array(ids[:cut], dtype=np.int64), cut


class FamilyJournal:
    """Per-family row journals with absolute send/truncate cursors.

    Each family's rows live in one :data:`EVENT_ROW_DTYPE` buffer that
    doubles when it fills, so appends cost amortized O(rows) even when
    the journal is never truncated. A :meth:`take` hands out a view of
    that buffer: appends write only past the rows it covers, and
    growing or truncating a buffer moves the rows to a fresh one, so a
    view stays valid while its delivery is in flight.

    Parameters
    ----------
    router:
        A :class:`~repro.cluster.balancer.ClusterRouter`; supplies the
        columnar routing, the family count and each family's key table.
    """

    def __init__(self, router) -> None:
        self.router = router
        n = router.base.n_shards
        self._rows: dict[int, np.ndarray] = {
            fam: np.empty(0, EVENT_ROW_DTYPE) for fam in range(n)
        }
        #: rows held in ``_rows[fam]`` (the rest of it is spare capacity)
        self._count: dict[int, int] = {fam: 0 for fam in range(n)}
        #: absolute position of ``_rows[fam][0]`` (grows on truncation)
        self._base: dict[int, int] = {fam: 0 for fam in range(n)}
        #: absolute position of the next row to send
        self._sent: dict[int, int] = {fam: 0 for fam in range(n)}
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

    def absorb(
        self, ids, locations, is_task, times, observe=None
    ) -> tuple[set[int], RefusedRow | None]:
        """Route one chunk of arrivals into per-family rows; returns the
        touched family ids and the chunk's refused row, if any.

        Row ``i`` is a task when ``is_task[i]`` is true (``ids[i]`` is
        then its task id), else a worker. The columns come validated:
        ``locations`` an ``(n, 2)`` float array, ``ids`` ints and
        ``times`` floats. ``observe(key, is_task)`` is the optional
        balancer tap, called per accepted row. The accepted rows advance
        :attr:`now`. A repeated worker or task id, or an id outside
        int64, is refused at its row, with the rows before it absorbed:
        the caller raises the :class:`~repro.cluster.worker.RefusedRow`
        once it has sent them.
        """
        n = len(ids)
        id_col, fits = _int64_ids(ids)
        accepted = admit(
            self.known_workers,
            self.known_tasks,
            ids if fits == n else ids[:fits],
            is_task,
        )
        touched: set[int] = set()
        if accepted:
            touched = self._append_chunk(
                id_col[:accepted],
                locations[:accepted],
                np.asarray(is_task[:accepted], dtype=bool),
                observe,
            )
            self.now = max(self.now, float(np.max(times[:accepted])))
        refused = None
        if accepted < fits:
            refused = refusal(ids, is_task, accepted, "the mesh")
        elif fits < n:
            kind = "task" if is_task[fits] else "worker"
            refused = RefusedRow(
                f"{kind} id outside int64 refused by the mesh: {ids[fits]}", fits
            )
        return touched, refused

    def _append_chunk(self, ids, locations, kinds, observe) -> set[int]:
        """Pack admitted columns into rows and append each family's rows,
        in stream order; returns the touched families."""
        families, index = self.router.route_many(locations)
        if observe is not None:
            tables: dict[int, list[str]] = {}
            for fam, k, task in zip(families.tolist(), index.tolist(), kinds.tolist()):
                if fam not in tables:
                    tables[fam] = self.router.family_keys(fam)
                observe(tables[fam][k], task)
        # one stable sort groups the rows by family, stream order kept
        order = np.argsort(families, kind="stable")
        rows = np.empty(len(order), EVENT_ROW_DTYPE)
        rows["key"] = index[order]
        rows["kind"] = kinds[order]
        rows["id"] = ids[order]
        rows["x"] = locations[order, 0]
        rows["y"] = locations[order, 1]
        touched: set[int] = set()
        start = 0
        for fam, count in enumerate(np.bincount(families, minlength=len(self._rows)).tolist()):
            if count:
                self._append(fam, rows[start : start + count])
                touched.add(fam)
                start += count
        return touched

    def _append(self, fam: int, rows: np.ndarray) -> None:
        buf, count = self._rows[fam], self._count[fam]
        need = count + len(rows)
        if need > len(buf):
            grown = np.empty(max(need, 2 * len(buf), _MIN_CAPACITY), EVENT_ROW_DTYPE)
            grown[:count] = buf[:count]
            self._rows[fam] = buf = grown
        buf[count:need] = rows
        self._count[fam] = need

    # ------------------------------------------------------------------ #
    # cursors                                                             #
    # ------------------------------------------------------------------ #

    def end(self, fam: int) -> int:
        """Absolute position one past the last journaled row of ``fam``."""
        return self._base[fam] + self._count[fam]

    def sent(self, fam: int) -> int:
        """Absolute position of the next row of ``fam`` to send: once its
        deliveries have returned, everything before it is applied."""
        return self._sent[fam]

    def take(self, fam: int, upto: int | None = None) -> tuple[list[str], np.ndarray]:
        """``fam``'s key table and its pending rows up to ``upto``
        (absolute; ``None`` = everything journaled), advancing the send
        cursor past them. The rows are a read-only view of the journal,
        empty when nothing is pending; each row's ``key`` indexes the
        table.

        The cursor moves *before* the caller transmits: a failover
        triggered mid-send rewinds it and the journal itself re-serves
        the rows — delivery can fail, the log cannot.
        """
        keys = self.router.family_keys(fam)
        base = self._base[fam]
        stop = self.end(fam) if upto is None else min(upto, self.end(fam))
        start = max(self._sent[fam], base)
        rows = self._rows[fam][start - base : max(stop, start) - base]
        rows.flags.writeable = False
        if len(rows):
            self._sent[fam] = stop
        return keys, rows

    def rewind(self, fam: int) -> None:
        """Point the send cursor back at the checkpoint base: everything
        retained since the last truncation replays on the next take."""
        self._sent[fam] = self._base[fam]

    def truncate(self, fam: int, upto: int) -> int:
        """Drop ``fam``'s rows before ``upto`` (absolute); returns how many.

        Called once their effects are safely inside a snapshot. Positions
        are never renumbered — ``base`` advances instead — so cursors and
        high-water marks captured earlier stay valid. The kept rows move
        to a fresh buffer, so views handed out earlier stay intact.
        """
        dropped = max(min(upto, self.end(fam)) - self._base[fam], 0)
        if dropped:
            buf, count = self._rows[fam], self._count[fam]
            kept = count - dropped
            fresh = np.empty(max(kept, _MIN_CAPACITY), EVENT_ROW_DTYPE)
            fresh[:kept] = buf[dropped:count]
            self._rows[fam], self._count[fam] = fresh, kept
        self._base[fam] += dropped
        self._sent[fam] = max(self._sent[fam], self._base[fam])
        return dropped

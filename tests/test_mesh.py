"""The worker mesh: protocol, journal cursors, parity, crash failover.

Standalone worker processes dial the coordinator over the gateway wire,
and whatever the transport does — pipelined dispatch, odd chunk joints,
per-family checkpoint cuts, a worker SIGKILLed mid-batch or mid-cut,
even a second kill during the recovery itself — the assignments must
stay bit-identical to the single-process sharded engine. With the
hot-shard balancer on, a migration changes no answer, and a run with hot
cells split gives the same answers whatever the transport does.
"""

import contextlib
import functools
import json
import os
import signal
import socket
import struct
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    RegisterWorker,
    ServiceSpec,
    StreamWindow,
    SubmitTask,
    make_backend,
    requests_from_events,
)
from repro.api.client import AssignmentClient
from repro.api.conformance import (
    BackendRun,
    build_conformance_stream,
    check_parity,
    run_backend,
    run_mesh_failover,
)
from repro.api.errors import ApiError
from repro.api.messages import TaskDecision
from repro.cluster.balancer import BalancerConfig, ClusterRouter, family_of
from repro.cluster.dispatch import EVENT_ROW_DTYPE, FamilyJournal
from repro.cluster.snapshot import SNAPSHOT_VERSION, parse_snapshot, snapshot_text
from repro.cluster.worker import ShardHost, shard_spec
from repro.gateway import codec
from repro.gateway.protocol import (
    BIN1_MAGIC,
    BIN1_WIRE_VERSION,
    GENERIC_TAG,
    HEADER,
    MESH_WORKER_ROLE,
    PACKED_DOC_TAG,
    FrameDecoder,
    encode_frame,
    goodbye_doc,
    handshake_frame,
    hello_doc,
    role_feature,
)
from repro.geometry import Box
from repro.mesh import (
    MESH_SCHEMA,
    MESH_VERSION,
    MeshCoordinator,
    MeshError,
    OP_KINDS,
    event_columns,
    events_reply_doc,
    fail_doc,
    op_doc,
    parse_op,
    parse_reply,
    reply_doc,
)
from repro.mesh import coordinator as mesh_coordinator
from repro.mesh import worker as mesh_worker
from repro.service import ShardedAssignmentEngine
from repro.service.events import TaskArrival, WorkerArrival, merge_event_streams
from repro.service.sharding import ShardMap
from repro.utils import keyed_shard_seed

from .conftest import DAMAGED_DELTAS

REGION = Box.square(200.0)


def spec_for(shards=(2, 2), **kw) -> ServiceSpec:
    kw.setdefault("grid_nx", 6)
    kw.setdefault("batch_size", 8)
    kw.setdefault("seed", 11)
    return ServiceSpec(region=REGION, shards=shards, **kw)


# --------------------------------------------------------------------- #
# protocol                                                               #
# --------------------------------------------------------------------- #


class TestMeshProtocol:
    def test_op_round_trip(self):
        for op in OP_KINDS:
            doc = op_doc(op, 7, {"key": "s0"})
            assert doc["schema"] == MESH_SCHEMA
            assert doc["version"] == MESH_VERSION
            assert parse_op(doc) == (op, 7, {"key": "s0"})

    def test_reply_and_fail_round_trip(self):
        kind, seq, body = parse_reply(reply_doc(3, {"key": "s0"}))
        assert (kind, seq, body) == ("reply", 3, {"key": "s0"})
        kind, seq, body = parse_reply(events_reply_doc(4, {"workers": []}))
        assert (kind, seq, body) == ("events_reply", 4, {"workers": []})
        kind, seq, body = parse_reply(fail_doc(9, "rejected", "nope", "why"))
        assert kind == "fail"
        assert seq == 9
        assert body == {"code": "rejected", "message": "nope", "detail": "why"}

    def test_unknown_op_is_refused_at_build_time(self):
        # ping and crash were never sent by the coordinator; they are gone
        for op in ("format-disk", "ping", "crash"):
            with pytest.raises(ValueError):
                op_doc(op, 1)

    def test_damaged_envelopes_map_to_stable_codes(self):
        cases = [
            "not a dict",
            {},
            {"schema": "repro.gateway", "version": 1, "kind": "flush",
             "seq": 0, "body": {}},
            {"schema": MESH_SCHEMA, "version": 99, "kind": "flush",
             "seq": 0, "body": {}},
            {"schema": MESH_SCHEMA, "version": 1, "kind": "levitate",
             "seq": 0, "body": {}},
            {"schema": MESH_SCHEMA, "version": 1, "kind": "flush",
             "seq": -4, "body": {}},
            {"schema": MESH_SCHEMA, "version": 1, "kind": "flush",
             "seq": "zero", "body": {}},
            {"schema": MESH_SCHEMA, "version": 1, "kind": "flush",
             "seq": 0, "body": []},
        ]
        for doc in cases:
            with pytest.raises(ApiError) as err:
                parse_op(doc)
            assert err.value.code in ("invalid-request", "unsupported-version")

    def test_reply_parser_rejects_op_kinds(self):
        with pytest.raises(ApiError):
            parse_reply(op_doc("flush", 0))


def _exchange_ops(ops, *, goodbye=False) -> list[tuple[str, int, dict]]:
    """Serve ``(op, body)`` pairs (or whole frames, as bytes, numbered in
    turn) on a worker op loop over a socketpair; every answer, parsed,
    once the loop has ended (after a ``fail``, or at the goodbye sent
    behind the ops when ``goodbye``)."""
    ours, theirs = socket.socketpair()
    ours.settimeout(10.0)

    def serve():
        try:
            mesh_worker.serve_connection(theirs, FrameDecoder())
        finally:
            theirs.close()

    server = threading.Thread(target=serve, daemon=True)
    server.start()
    try:
        for seq, op in enumerate(ops, start=1):
            if not isinstance(op, bytes):
                op = encode_frame(op_doc(op[0], seq, op[1]))
            ours.sendall(op)
        if goodbye:
            ours.sendall(encode_frame(goodbye_doc("done")))
        decoder, replies = FrameDecoder(), []
        while data := ours.recv(65536):
            replies.extend(decoder.feed(data))
    finally:
        ours.close()
        server.join(timeout=10.0)
    assert not server.is_alive()
    return [parse_reply(doc) for doc in replies]


_SHARD_SPEC = shard_spec(REGION, grid_nx=6, epsilon=1.0, budget_capacity=5.0, seed=11)
_SETUP = [
    ("configure", {"batch_size": 8}),
    ("create", {"key": "s0", "spec": _SHARD_SPEC}),
]
_ROWS = [
    ("s0", 7, [10.0, 10.0], False),
    ("s0", 0, [12.0, 12.0], True),
    ("s0", 1, [12.0, 12.0], True),
]

#: One packed event row (key index, kind, id, x, y): the oracle for the
#: journal's and the codec's EVENT_ROW_DTYPE bytes.
_EVENT_ROW = struct.Struct(">IBqdd")


def _events_body(rows) -> dict:
    """The ``events`` body of ``(key, id, [x, y], is_task)`` rows: the
    key table in first-use order and the rows as event records."""
    table: list[str] = []
    packed = np.zeros(len(rows), dtype=EVENT_ROW_DTYPE)
    for i, (key, ident, (x, y), task) in enumerate(rows):
        if key not in table:
            table.append(key)
        packed[i] = (table.index(key), int(task), ident, x, y)
    return {"keys": table, "rows": packed}


def _damaged_events_frame(seq: int, field: str, value: int) -> bytes:
    """The ``events`` frame of :data:`_ROWS` with one field of its first
    row overwritten in the frame's bytes: what arrives when the row, not
    the frame around it, is damaged."""
    frame = bytearray(encode_frame(op_doc("events", seq, _events_body(_ROWS))))
    # length header, bin1 prefix, seq/count/key-count head, table ("s0")
    row = HEADER.size + 3 + 16 + 3
    offset = {"key": 0, "kind": 4}[field]
    struct.pack_into(">I" if field == "key" else ">B", frame, row + offset, value)
    return bytes(frame)


def _json_events_frame(seq: int) -> bytes:
    """An ``events`` op in the generic (embedded-JSON) layout, the way a
    peer that predates the row layout would send it."""
    doc = op_doc("events", seq, {"keys": ["s0"], "key": [0], "ids": [1],
                                 "xy": [[1.0, 1.0]], "is_task": [False]})
    payload = struct.pack(">BBB", BIN1_MAGIC, BIN1_WIRE_VERSION, GENERIC_TAG)
    payload += json.dumps(doc).encode("utf-8")
    return HEADER.pack(len(payload)) + payload


#: A snapshot text damaged on its way to the restoring worker, and the
#: SnapshotError code that worker answers for it.
_TEXT_DAMAGE = {
    "truncated": (lambda text: text[: len(text) // 2], "snapshot-bad-format"),
    "foreign-version": (
        lambda text: text.replace(f'"version":{SNAPSHOT_VERSION}', '"version":9', 1),
        "snapshot-unsupported-version",
    ),
}
_DAMAGED_TEXTS = pytest.mark.parametrize(
    "damage, code", _TEXT_DAMAGE.values(), ids=_TEXT_DAMAGE
)


def _in_document(change):
    """A text damage that parses the document, applies ``change`` to it
    and writes it back: damage the text codec lets through."""

    def damage(text: str) -> str:
        doc = json.loads(text)
        change(doc)
        return snapshot_text(doc)

    return damage


class TestWorkerOpLoop:
    def test_an_oversize_reply_answers_fail_for_its_op(self, monkeypatch):
        """A reply over the frame ceiling is a failed op: the worker
        answers a structured ``fail`` for its seq and stops serving,
        instead of dying with no answer at all."""
        monkeypatch.setattr(
            mesh_worker,
            "encode_frame",
            functools.partial(encode_frame, max_frame_bytes=1500),
        )
        answers = _exchange_ops(
            [*_SETUP, ("snapshot", {"key": "s0", "mode": "base", "checkpoint": 1})]
        )
        assert [(kind, seq) for kind, seq, _ in answers] == [
            ("reply", 1), ("reply", 2), ("fail", 3),
        ]
        assert answers[-1][2]["code"] == "invalid-request"
        assert "frame limit" in answers[-1][2]["message"]

    def test_a_snapshot_answers_its_head_and_text_and_loads_back(self):
        """A ``snapshot`` reply is the document's text beside its head;
        a ``load`` of that text on a fresh worker restores the shard."""
        answers = _exchange_ops(
            [*_SETUP, ("events", _events_body(_ROWS[:1])),
             ("snapshot", {"key": "s0", "mode": "delta", "checkpoint": 3, "parent": 2})],
            goodbye=True,
        )
        kind, seq, body = answers[-1]
        assert (kind, seq) == ("reply", 4)
        # no cursor for parent 2 on this worker: the delta falls back to a base
        assert {k: v for k, v in body.items() if k != "text"} == {
            "key": "s0", "kind": "base", "checkpoint": 3, "parent": None,
        }
        doc = parse_snapshot(body["text"])
        assert (doc["kind"], doc["checkpoint"]) == ("base", 3)
        assert doc["pending"]["worker_ids"] == [7]  # batch_size 8: still buffered
        loaded = _exchange_ops(
            [_SETUP[0], ("load", {"key": "s0", "chain": [body["text"]]}),
             ("events", _events_body(_ROWS[1:]))],
            goodbye=True,
        )
        assert loaded[-1][2] == {"workers": [7, None]}

    @pytest.mark.parametrize(
        "damage, code",
        [
            *_TEXT_DAMAGE.values(),
            *((_in_document(change), "snapshot-bad-format")
              for change in DAMAGED_DELTAS.values()),
        ],
        ids=[*_TEXT_DAMAGE, *DAMAGED_DELTAS],
    )
    def test_a_damaged_chain_answers_fail_with_its_snapshot_code(self, damage, code):
        """A chain whose delta text the restoring worker cannot parse or
        fold answers a ``fail`` for the ``load`` carrying its
        :class:`SnapshotError` code, and the worker stops serving."""
        host = ShardHost(batch_size=1)
        host.create("s0", _SHARD_SPEC)
        host.ingest(["s0"] * 2, [7, 0], [[10.0, 10.0], [12.0, 12.0]], [False, True])
        base = snapshot_text(host.snapshot("s0", checkpoint=1))
        host.ingest(["s0"] * 2, [8, 1], [[20.0, 20.0], [22.0, 22.0]], [False, True])
        delta = snapshot_text(
            host.snapshot("s0", mode="delta", checkpoint=2, parent=1)
        )
        assert parse_snapshot(delta)["kind"] == "delta"
        answers = _exchange_ops(
            [_SETUP[0], ("load", {"key": "s0", "chain": [base, damage(delta)]})]
        )
        assert [(kind, seq) for kind, seq, _ in answers] == [("reply", 1), ("fail", 2)]
        assert answers[-1][2]["code"] == code

    def test_events_answer_one_worker_per_task_row(self):
        answers = _exchange_ops([*_SETUP, ("events", _events_body(_ROWS))], goodbye=True)
        assert [(kind, seq) for kind, seq, _ in answers] == [
            ("reply", 1), ("reply", 2), ("events_reply", 3),
        ]
        # the first task takes the only worker; the second finds none
        assert answers[-1][2] == {"workers": [7, None]}

    @pytest.mark.parametrize(
        "frame, message",
        [
            # the key index of row 0 is the table's length, one past it
            (_damaged_events_frame(3, "key", 1), "key table"),
            (_damaged_events_frame(3, "key", 2**32 - 1), "key table"),
            (_damaged_events_frame(3, "kind", 2), "0 or 1"),
            (_json_events_frame(3), "event rows"),
        ],
        ids=["index-past-table", "index-max", "kind-2", "json-columns"],
    )
    def test_damaged_events_answer_fail_for_their_seq(self, frame, message):
        """Rows from another process are checked where they are applied:
        a frame whose rows are damaged decodes, and its op answers a
        structured ``fail`` for its seq, never a silently wrong reply."""
        answers = _exchange_ops([*_SETUP, frame])
        assert [(kind, seq) for kind, seq, _ in answers] == [
            ("reply", 1), ("reply", 2), ("fail", 3),
        ]
        assert answers[-1][2]["code"] == "rejected"
        assert message in answers[-1][2]["message"]

    @staticmethod
    def _deliver_against(answer, match: str) -> None:
        """Send one worker row and one task row to a stand-in worker that
        answers the ``events`` op with ``answer(seq, body)``: the window's
        wait must raise a :class:`MeshError` matching ``match`` and no
        outcome may be recorded."""
        with _answered_by(answer) as coordinator:
            marks = _ingest(coordinator, [_worker(0, 10, 10), _task(0, 15, 15)])
            with pytest.raises(MeshError, match=match):
                coordinator.result_of(marks, [0])
            assert coordinator._results == {}

    def test_coordinator_refuses_a_short_workers_reply(self):
        """A reply with fewer workers than task rows fails the mesh at
        once; recording nothing would leave the window waiting out the
        liveness timeout."""
        self._deliver_against(
            lambda seq, body: events_reply_doc(seq, {"workers": []}),
            "malformed events reply",
        )

    def test_coordinator_refuses_a_generic_reply_to_events(self):
        """Only an ``events_reply`` answers an ``events`` op: a generic
        ``reply`` carrying a right-length ``workers`` list is a confused
        peer, not outcomes."""
        self._deliver_against(
            lambda seq, body: reply_doc(seq, {"workers": [0]}), "not an events_reply"
        )

    def test_one_family_keeps_two_slices_in_flight(self):
        """Two windows of one family are sent before the worker reads a
        byte: both ``events`` ops are in flight on the one socket at
        once, and once both are answered the decisions equal the
        engine's serial replay of the same windows."""
        ours, theirs = socket.socketpair()
        coordinator = MeshCoordinator(
            REGION, shards=(1, 1), expected_workers=1, grid_nx=6, batch_size=4,
            seed=11,
        )
        peer = _stand_in_peer(coordinator, ours)
        sent_ops = []
        send = peer.send

        def spy(op, body, on_reply=None):
            sent_ops.append(op)
            return send(op, body, on_reply)

        peer.send = spy
        windows = [
            [_worker(i, 10 + 7 * i, 20 + 5 * i) for i in range(6)]
            + [_task(0, 40, 40), _task(1, 12, 30)],
            [_worker(6, 90, 90), _task(2, 30, 30), _worker(7, 60, 20),
             _task(3, 80, 85), _task(4, 15, 15)],
        ]
        server = threading.Thread(
            target=lambda: mesh_worker.serve_connection(theirs, FrameDecoder()),
            daemon=True,
        )
        try:
            marks = [_ingest(coordinator, window) for window in windows]
            assert sent_ops == ["configure", "create", "events", "events"]
            assert peer.outstanding == 4  # nothing answered yet
            assert coordinator._acked[0] == 0 < marks[0][0] < marks[1][0]
            server.start()
            decisions = [
                coordinator.result_of(
                    m, [e.task_id for e in w if isinstance(e, TaskArrival)]
                )
                for m, w in zip(marks, windows)
            ]
        finally:
            peer.shutdown()
            coordinator.close()
            server.join(timeout=10.0)
            theirs.close()
        engine = ShardedAssignmentEngine(
            REGION, shards=(1, 1), grid_nx=6, batch_size=4, seed=11
        )
        serial = []
        for window in windows:
            for event in window:
                is_task = isinstance(event, TaskArrival)
                ident = event.task_id if is_task else event.worker_id
                serial += engine.ingest([ident], [event.location], [is_task], [event.time])
        assert [w for window in decisions for w in window] == serial
        assert coordinator.tasks_answered == 5
        assert coordinator._results == {}


@contextlib.contextmanager
def _answered_by(answer):
    """A (1, 1) coordinator whose one peer is a stand-in worker over a
    socketpair, its shard counted as built: the stand-in answers the
    first op it reads with ``answer(seq, body)``."""
    ours, theirs = socket.socketpair()
    theirs.settimeout(10.0)

    def stand_in():
        decoder, docs = FrameDecoder(), []
        while not docs:
            docs = decoder.feed(theirs.recv(65536))
        _, seq, body = parse_op(docs[0])
        theirs.sendall(encode_frame(answer(seq, body)))

    server = threading.Thread(target=stand_in, daemon=True)
    server.start()
    coordinator = MeshCoordinator(REGION, shards=(1, 1), expected_workers=1)
    peer = _stand_in_peer(coordinator, ours)
    peer.configured = True
    coordinator._installed["s0"] = peer.name
    try:
        yield coordinator
    finally:
        peer.shutdown()
        coordinator.close()
        server.join(timeout=10.0)
        theirs.close()


def _stand_in_peer(coordinator, sock):
    """Make a socket the only peer of a coordinator that was never
    started: every family is placed on it, no shard is built yet."""
    peer = mesh_coordinator.MeshPeer("w0", sock, ())
    peer.start()
    coordinator._peers[peer.name] = peer
    coordinator._join_order.append(peer.name)
    coordinator._alive.add(peer.name)
    for fam in range(coordinator.shard_map.n_shards):
        coordinator.ownership[fam] = peer.name
    for key in coordinator.router.keys():
        coordinator._specs[key] = coordinator._spec_for(key)
    coordinator._started = True
    return peer


# --------------------------------------------------------------------- #
# the shared journal (absolute cursors are what failover replays on)     #
# --------------------------------------------------------------------- #


def _journal(shards=(2, 1)) -> FamilyJournal:
    return FamilyJournal(ClusterRouter(ShardMap(REGION, *shards)))


def _worker(wid, x, y):
    return WorkerArrival(time=0.0, worker_id=wid, location=(x, y))


def _task(tid, x, y):
    return TaskArrival(time=1.0, task_id=tid, location=(x, y))


def _ingest(coordinator, events):
    """Journal service events through the coordinator's columnar ingest;
    the marks it returns."""
    is_task = [isinstance(e, TaskArrival) for e in events]
    return coordinator.ingest(
        [e.task_id if t else e.worker_id for e, t in zip(events, is_task)],
        [e.location for e in events],
        is_task,
        [e.time for e in events],
    )


def _absorb(journal, *rows):
    """Feed ``(kind, id, x, y)`` rows (kind ``"w"`` or ``"t"``) to the
    journal as its columns and raise its refusal, as the coordinator
    does once the accepted rows are sent. Workers arrive at time 0.0 and
    tasks at 1.0 unless a row carries its time as a fifth field."""
    touched, refused = journal.absorb(
        [row[1] for row in rows],
        np.array([row[2:4] for row in rows], dtype=np.float64),
        [row[0] == "t" for row in rows],
        [row[4] if len(row) > 4 else float(row[0] == "t") for row in rows],
    )
    if refused is not None:
        raise refused
    return touched


def _rows_of(taken) -> list[tuple]:
    """A :meth:`FamilyJournal.take` result as ``(key, id, [x, y],
    is_task)`` tuples, each row's key read off the table."""
    keys, rows = taken
    return [
        (keys[k], i, [x, y], bool(kind))
        for k, kind, i, x, y in rows.tolist()
    ]


class TestFamilyJournal:
    def test_rows_keep_stream_order(self):
        j = _journal()
        # one row per event, in stream order per family, whatever shard a
        # row in another family lands on in between
        _absorb(j, ("w", 0, 10, 100), ("w", 1, 20, 100), ("w", 5, 150, 100),
                ("t", 0, 15, 100), ("w", 2, 30, 100))
        assert _rows_of(j.take(0)) == [
            ("s0", 0, [10.0, 100.0], False),
            ("s0", 1, [20.0, 100.0], False),
            ("s0", 0, [15.0, 100.0], True),
            ("s0", 2, [30.0, 100.0], False),
        ]
        assert _rows_of(j.take(1)) == [("s1", 5, [150.0, 100.0], False)]
        assert (j.end(0), j.end(1)) == (4, 1)

    def test_take_is_the_wire_rows(self):
        """A take is the events op's row bytes as they are: big-endian
        records, byte for byte a per-row ``struct`` packing."""
        j = _journal()
        _absorb(j, ("w", 2**62, 10.5, -0.0), ("t", -(2**63), 99.25, 5e-324))
        keys, rows = j.take(0)
        assert keys == ["s0"]
        assert rows.dtype == EVENT_ROW_DTYPE
        assert not rows.flags.writeable
        assert rows.tobytes() == _EVENT_ROW.pack(
            0, 0, 2**62, 10.5, -0.0
        ) + _EVENT_ROW.pack(0, 1, -(2**63), 99.25, 5e-324)

    def test_take_honours_absolute_upto_and_rewind(self):
        j = _journal()
        _absorb(j, *[("w", i, 10, 100) for i in range(3)])
        _absorb(j, ("t", 0, 15, 100))
        mark = j.end(0)
        _absorb(j, ("t", 1, 12, 100))
        first = _rows_of(j.take(0, mark))
        assert len(first) == 4
        assert j.sent(0) == mark
        keys, rows = j.take(0, mark)
        assert keys == ["s0"] and len(rows) == 0  # cursor moved past the mark
        assert j.sent(0) == mark
        rest = _rows_of(j.take(0))
        assert [(row[1], row[3]) for row in rest] == [(1, True)]
        j.rewind(0)
        assert j.sent(0) == 0
        replay = _rows_of(j.take(0))
        assert replay == first + rest  # base never truncated: full replay

    def test_truncate_keeps_positions_absolute(self):
        j = _journal()
        _absorb(j, ("w", 0, 10, 100), ("t", 0, 15, 100))
        mark = j.end(0)
        j.take(0, mark)
        j.truncate(0, mark)
        _absorb(j, ("t", 1, 12, 100))
        assert j.end(0) == mark + 1  # positions grow past the old mark
        j.rewind(0)
        assert j.sent(0) == mark
        # replay serves only the retained suffix, not the truncated rows
        assert [(row[1], row[3]) for row in _rows_of(j.take(0))] == [(1, True)]

    def test_truncate_counts_what_it_drops(self):
        j = _journal()
        _absorb(j, ("w", 0, 10, 100), ("t", 0, 15, 100), ("t", 1, 12, 100))
        j.take(0)
        assert j.truncate(0, 2) == 2  # the worker row and the first task
        assert j.truncate(0, 2) == 0  # already gone
        assert j.truncate(0, 99) == 1  # clipped at the journal's end
        assert j.truncate(1, 5) == 0  # an untouched family
        assert j.end(0) == 3

    def test_taken_rows_survive_growth_and_truncation(self):
        """A delivery encodes its rows outside the journal's lock: later
        appends, buffer growth and truncation must leave them intact."""
        j = _journal()
        _absorb(j, *[("w", i, 10, 100) for i in range(5)])
        keys, rows = j.take(0)
        before = rows.tobytes()
        for lo in range(5, 400, 50):  # grows the buffer several times
            _absorb(j, *[("w", i, 20, 100) for i in range(lo, lo + 50)])
        j.truncate(0, j.end(0) - 3)
        _absorb(j, *[("t", i, 10, 100) for i in range(60)])
        assert rows.tobytes() == before
        assert j.end(0) == 465
        _, kept = j.take(0)
        assert kept["id"].tolist()[:3] == [402, 403, 404]  # the kept suffix

    def test_deliveries_read_rows_while_the_journal_moves(self):
        """The coordinator takes a slice under its lock and encodes it
        outside: with appends, growth and truncation racing on another
        thread, every slice still reads the ids absorbed into it, and the
        slices add up to the stream."""
        j, lock = _journal(shards=(1, 1)), threading.Lock()
        chunks, size = 200, 37
        delivered: list[int] = []
        done = threading.Event()

        def absorb():
            for c in range(chunks):
                with lock:
                    _absorb(j, *[("w", i, 10, 10) for i in range(c * size, (c + 1) * size)])
            done.set()

        def deliver():
            while True:
                finished = done.is_set()
                with lock:
                    _, rows = j.take(0)
                    cut = j.sent(0)
                ids = rows["id"].tolist()  # read outside the lock
                time.sleep(0)
                assert rows["id"].tolist() == ids
                delivered.extend(ids)
                with lock:
                    j.truncate(0, cut)
                if finished and not ids:
                    return

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=f) for f in (absorb, deliver)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert delivered == list(range(chunks * size))

    def test_split_rows_index_the_family_table(self):
        router = ClusterRouter(ShardMap(REGION, 2, 1))
        j = FamilyJournal(router)
        _absorb(j, ("w", 0, 10, 10))  # journaled before the split
        router.split(0, 2)
        _absorb(j, ("w", 1, 10, 10), ("w", 2, 90, 190), ("w", 3, 150, 10))
        keys, rows = j.take(0)
        assert keys == ["s0", "s0/0", "s0/1", "s0/2", "s0/3"]
        # index 0 is the base cell, j + 1 is sub-shard j
        assert rows["key"].tolist() == [0, 1, 4]
        assert [keys[k] for k in rows["key"].tolist()] == ["s0", "s0/0", "s0/3"]
        assert _rows_of(j.take(1)) == [("s1", 3, [150.0, 10.0], False)]

    def test_duplicate_worker_ids_are_refused(self):
        j = _journal()
        _absorb(j, ("w", 0, 10, 100))
        with pytest.raises(ValueError):
            _absorb(j, ("w", 0, 99, 100))

    def test_ids_outside_int64_are_refused_at_their_row(self):
        """An id the rows cannot carry is refused like a repeated one:
        the rows before it are journaled, it and the rows after are not,
        and nothing wraps."""
        for bad in (2**63, -(2**63) - 1, 2**70):
            j = _journal()
            with pytest.raises(ValueError, match="outside int64"):
                _absorb(
                    j,
                    ("w", 1, 10, 100, 3.0),
                    ("t", 2**63 - 1, 10, 100, 4.0),
                    ("t", bad, 10, 100, 5.0),
                    ("w", 5, 10, 100, 9.0),
                )
            assert j.end(0) == 2
            assert _rows_of(j.take(0))[1] == ("s0", 2**63 - 1, [10.0, 100.0], True)
            assert j.known_workers == {1}
            assert j.known_tasks == {2**63 - 1}
            assert (j.end(0), j.end(1)) == (2, 0)
            assert j.now == 4.0

    def test_a_duplicate_before_an_outside_id_is_what_is_refused(self):
        j = _journal()
        with pytest.raises(ValueError, match="already registered"):
            _absorb(j, ("w", 1, 10, 100), ("w", 1, 10, 100), ("w", 2**63, 10, 100))
        assert j.end(0) == 1

    def test_clock_is_the_latest_accepted_event(self):
        j = _journal()
        _absorb(j, ("w", 0, 10, 100), ("t", 0, 15, 100))
        assert j.now == 1.0
        with pytest.raises(ValueError):
            _absorb(
                j,
                ("w", 1, 10, 100, 3.0),
                ("w", 0, 10, 100, 4.0),  # a duplicate
                ("w", 5, 10, 100, 9.0),
            )
        # worker 1 was accepted; the refused duplicate and the event
        # after it never moved the clock
        assert j.now == 3.0


# --------------------------------------------------------------------- #
# one row path: the engine and a mesh delivery through ShardHost.ingest  #
# --------------------------------------------------------------------- #


@st.composite
def _streams(draw):
    """Worker/task interleavings on the 200x200 region, a batch size and
    the window cuts one arm streams them in."""
    kinds = draw(st.lists(st.booleans(), min_size=1, max_size=48))
    coord = st.floats(min_value=0.0, max_value=199.0, allow_nan=False)
    xy = draw(st.lists(st.tuples(coord, coord), min_size=len(kinds), max_size=len(kinds)))
    cuts = draw(st.lists(st.integers(1, len(kinds)), max_size=6))
    return kinds, xy, draw(st.sampled_from([1, 3, 8])), sorted({0, *cuts, len(kinds)})


def _shard_states(host):
    """Every shard's export without its wall-clock metrics, as bytes."""
    out = {}
    for key, shard in host.shards.items():
        state = shard.export_state()
        state.pop("metrics")
        out[key] = json.dumps(state, sort_keys=True)
    return out


class TestOneRowPath:
    """Three arms, one answer: the engine fed one row per call (the
    reference, which can defer nothing), the engine fed random windows,
    and the mesh path — journal rows per family, the ``events`` op and
    its reply through the bin1 row codec, ``ShardHost.ingest`` on a
    second host."""

    SEED = 7

    @settings(max_examples=60, deadline=None)
    @given(_streams())
    def test_three_arms_agree(self, stream):
        kinds, xy, batch_size, bounds = stream
        seen = {False: 0, True: 0}
        ids = []
        for task in kinds:  # workers and tasks each numbered in order
            ids.append(seen[task])
            seen[task] += 1
        times = [float(i) for i in range(len(kinds))]
        windows = list(zip(bounds, bounds[1:]))

        def engine():
            return ShardedAssignmentEngine(
                REGION, shards=(2, 2), grid_nx=4, batch_size=batch_size,
                seed=self.SEED,
            )

        one_row, windowed = engine(), engine()
        reference = []
        for row in range(len(kinds)):
            reference += one_row.ingest(
                [ids[row]], [xy[row]], [kinds[row]], [times[row]]
            )
        decisions = []
        for lo, hi in windows:
            decisions += windowed.ingest(
                ids[lo:hi], xy[lo:hi], kinds[lo:hi], times[lo:hi]
            )

        smap = ShardMap(REGION, 2, 2)
        journal = FamilyJournal(ClusterRouter(smap))
        host = ShardHost(batch_size)
        for cell, key in enumerate(one_row.keys):
            host.create(
                key,
                shard_spec(
                    smap.shard_box(cell), grid_nx=4, epsilon=0.5,
                    budget_capacity=2.0, seed=keyed_shard_seed(self.SEED, key),
                ),
            )
        outcomes = {}
        for lo, hi in windows:
            touched, _ = journal.absorb(
                ids[lo:hi], np.array(xy[lo:hi]), kinds[lo:hi], times[lo:hi]
            )
            for fam in sorted(touched):
                table, rows = journal.take(fam)
                op = {"keys": table, "rows": rows}
                _, seq, body = parse_op(codec.decode_bin1(
                    codec.encode_bin1(op_doc("events", fam + 1, op))
                ))
                keys, row_ids, row_xy, row_kinds = event_columns(body)
                workers = host.ingest(keys, row_ids, row_xy, row_kinds)
                _, _, reply = parse_reply(codec.decode_bin1(
                    codec.encode_bin1(events_reply_doc(seq, {"workers": workers}))
                ))
                tasks = rows["id"][rows["kind"] == 1].tolist()
                outcomes.update(zip(tasks, reply["workers"]))
        mesh = [outcomes[tid] for tid, task in zip(ids, kinds) if task]

        assert decisions == reference
        assert mesh == reference
        states = _shard_states(one_row.host)
        for other in (windowed.host, host):
            assert other.pending == one_row.host.pending
            assert {k: s.metrics.cohorts_flushed for k, s in other.shards.items()} == {
                k: s.metrics.cohorts_flushed for k, s in one_row.host.shards.items()
            }
            assert _shard_states(other) == states


# --------------------------------------------------------------------- #
# parity (fork workers over loopback sockets)                            #
# --------------------------------------------------------------------- #


class TestMeshParity:
    def test_mesh_matches_sharded_with_odd_chunks_and_checkpoints(self):
        spec = spec_for((2, 2))
        stream = build_conformance_stream(REGION, 40, 30, seed=3)
        reference = run_backend(make_backend("sharded", spec), stream, window=16)
        mesh = run_backend(
            make_backend(
                "mesh", spec, n_peers=2, chunk_size=13, checkpoint_every=32
            ),
            stream,
            window=16,
        )
        assert check_parity([reference, mesh]) == []

    def test_journaling_threads_keep_each_family_in_journal_order(self):
        """Four threads journal windows that span every family at once,
        with the interpreter switching threads often: whatever order the
        journal took, each family's slices reach its owner in that order,
        so the answers equal a serial replay of each family's journal."""
        spec = spec_for((2, 2))
        rng = np.random.default_rng(4)
        n_threads, n_windows, size = 4, 6, 12
        backend = make_backend("mesh", spec, n_peers=2, chunk_size=5, checkpoint_every=0)
        answers: dict[int, int | None] = {}
        errors: list[BaseException] = []

        def journal(t):
            try:
                for w in range(n_windows):
                    base = (t * n_windows + w) * size
                    kinds = rng_kinds[t][w]
                    xy = rng_xy[t][w]
                    ids = [base + i for i in range(size)]
                    marks = backend.coordinator.ingest(ids, xy, kinds, [0.0] * size)
                    tasks = [i for i, k in zip(ids, kinds) if k]
                    answers.update(zip(tasks, backend.coordinator.result_of(marks, tasks)))
            except BaseException as exc:
                errors.append(exc)

        rng_kinds = [[(rng.random(size) < 0.4).tolist() for _ in range(n_windows)]
                     for _ in range(n_threads)]
        rng_xy = [[rng.uniform(0, 200, (size, 2)) for _ in range(n_windows)]
                  for _ in range(n_threads)]
        backend.open()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=journal, args=(t,)) for t in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            journal_rows = backend.coordinator._journal
            per_family = [
                journal_rows._rows[fam][: journal_rows._count[fam]].tolist()
                for fam in journal_rows.families
            ]
        finally:
            sys.setswitchinterval(interval)
            backend.close()
        reference = make_backend("sharded", spec)
        reference.open()
        want: dict[int, int | None] = {}
        for seq, rows in enumerate(per_family):
            window = StreamWindow.of(
                seq,
                [
                    SubmitTask(task_id=i, location=(x, y)) if kind
                    else RegisterWorker(worker_id=i, location=(x, y))
                    for _key, kind, i, x, y in rows
                ],
            )
            result = reference.handle(window)
            want.update(
                zip([i for _k, kind, i, _x, _y in rows if kind], result.workers)
            )
        reference.close()
        assert len(answers) == sum(sum(kinds) for per in rng_kinds for kinds in per)
        assert answers == want

    def test_telemetry_shape_after_a_run(self):
        spec = spec_for((2, 2))
        stream = build_conformance_stream(REGION, 30, 20, seed=5)
        # cut often enough for deltas to chain onto the first bases
        backend = make_backend(
            "mesh", spec, n_peers=2, chunk_size=13, checkpoint_every=12
        )
        run_backend(backend, stream, window=16)
        telemetry = backend.coordinator.telemetry()
        assert telemetry["failovers"] == 0
        assert telemetry["rejected_handshakes"] == 0
        assert len(telemetry["peers"]) == 2
        owned = []
        for peer in telemetry["peers"].values():
            assert peer["alive"]
            assert peer["calls"] > 0
            assert peer["dispatch_depth"]["count"] > 0
            owned += peer["families"]
        assert sorted(owned) == [0, 1, 2, 3]  # every family placed once
        assert telemetry["snapshot_bytes"]["count"] > 0  # checkpoints ran
        assert telemetry["delta_bytes"]["count"] > 0
        # one size per shard cut (a base or a delta), one time per family
        # cut; no cell is split, so every family is one shard
        assert (
            telemetry["snapshot_bytes"]["count"] + telemetry["delta_bytes"]["count"]
            == telemetry["checkpoint_seconds"]["count"]
        )
        assert telemetry["scheduler"]["submitted"] > 0
        assert telemetry["scheduler"]["barriers"] > 0


# --------------------------------------------------------------------- #
# per-family checkpoint cuts                                             #
# --------------------------------------------------------------------- #


class TestCheckpointCuts:
    def test_a_held_cut_stalls_no_delivery(self):
        """While one family's cut is held between posting its snapshot
        ops and reading their replies, tasks in that family and in
        another are both answered: a cut holds back no delivery."""
        backend = make_backend(
            "mesh", spec_for((2, 2)), n_peers=2, chunk_size=4, checkpoint_every=4
        )
        held, release = threading.Event(), threading.Event()

        def hold(key):
            if family_of(key) == 0 and not held.is_set():
                held.set()
                release.wait(timeout=30.0)

        backend.open()
        try:
            coordinator = backend.coordinator
            coordinator._test_mid_checkpoint = hold
            # four events in family 0 reach the cadence: every family is cut
            _ingest(
                coordinator,
                [_worker(0, 10, 10), _worker(1, 20, 20), _task(0, 15, 15),
                 _worker(2, 30, 30)],
            )
            assert held.wait(timeout=10.0), "no cut reached family 0"
            marks = _ingest(
                coordinator,
                [_worker(3, 190, 190), _task(1, 185, 185), _task(2, 12, 12)],
            )
            assert sorted(marks) == [0, 3]
            answered = []
            waiter = threading.Thread(
                target=lambda: answered.extend(coordinator.result_of(marks, [1, 2])),
                daemon=True,
            )
            waiter.start()
            waiter.join(timeout=5.0)
            assert answered == [3, 1], "a task waited behind the held cut"
            assert not release.is_set() and coordinator._scheduler.in_flight
        finally:
            release.set()
            backend.close()

    def test_a_cut_covers_exactly_the_rows_sent_before_it(self):
        """Hold a cut's snapshot replies while the next window's slice of
        its family goes out to the same owner, let the cut commit, then
        SIGKILL that owner: restoring the chain and replaying the journal
        from the cut gives serial parity, so the chain tip holds exactly
        the rows sent before the snapshot ops."""
        spec = spec_for((2, 2))
        stream = build_conformance_stream(REGION, 60, 40, seed=7)
        windows = [StreamWindow.of(i, stream[i : i + 16]) for i in range(0, len(stream), 16)]
        reference = make_backend("sharded", spec)
        reference.open()
        want = [reference.handle(window).workers for window in windows]
        reference.close()
        backend = make_backend(
            "mesh", spec, n_peers=2, chunk_size=16, checkpoint_every=0
        )
        held, release = threading.Event(), threading.Event()

        def hold(key):
            if family_of(key) == 0 and not held.is_set():
                held.set()
                release.wait(timeout=30.0)

        got = []
        backend.open()
        try:
            coordinator = backend.coordinator
            journal = coordinator._journal
            got += [backend.handle(window).workers for window in windows[:2]]
            coordinator._test_mid_checkpoint = hold
            coordinator._scheduler.submit(0, coordinator._job, coordinator._cut, 0)
            assert held.wait(timeout=10.0)
            cut_at = journal.sent(0)
            assert cut_at > 0
            rest = iter(windows[2:])
            for window in rest:
                got.append(backend.handle(window).workers)  # answered while held
                if journal.sent(0) > cut_at:
                    break
            assert journal.sent(0) > cut_at, "no later slice of family 0 went out"
            release.set()
            assert coordinator._scheduler.drain(timeout=30.0)
            assert journal._base[0] == cut_at  # truncated at the cut, no further
            owner = coordinator._peers[coordinator.ownership[0]]
            backend.kill_worker(int(owner.label.rsplit("mesh-w", 1)[1]))
            got += [backend.handle(window).workers for window in rest]
            assert coordinator.failovers == 1
            assert coordinator._results == {}
        finally:
            release.set()
            backend.close()
        assert got == want

    @pytest.mark.parametrize(
        "rebase_every, deltas, bases, rebases", [(0, 0, 48, 44), (1, 24, 24, 20)]
    )
    def test_rebase_cap_bounds_every_chain(self, rebase_every, deltas, bases, rebases):
        """12 cut rounds over 4 families: ``rebase_every=0`` takes only
        bases, ``1`` alternates base and delta; answers never change."""
        spec = spec_for((2, 2))
        stream = build_conformance_stream(REGION, 100, 100, seed=5)
        reference = run_backend(make_backend("sharded", spec), stream, window=16)
        stats: dict = {}
        mesh, _ = run_mesh_failover(
            spec, stream, n_peers=2, kill_after=len(stream) + 1, window=16,
            checkpoint_every=16, rebase_every=rebase_every, stats=stats,
        )
        assert check_parity([reference, mesh]) == []
        assert stats["delta_checkpoints"] == deltas
        assert stats["base_checkpoints"] == bases
        assert stats["rebase_total"] == rebases
        assert stats["max_chain_len"] == rebase_every + 1

    def test_snapshots_and_loads_ride_the_generic_layout(self, monkeypatch):
        """Snapshot replies carry each document as one JSON text beside
        its head, and the coordinator keeps the texts as they came: every
        chain entry it holds is a text a snapshot reply carried, and a
        failover's ``load`` sends exactly such texts back, a base and the
        deltas chained onto it. Both travel as embedded JSON like every
        other mesh op (nothing is packed), and the answers equal the
        sharded engine's."""
        replied: dict[str, list[str]] = {}
        decoded_tags, sent, loads = [], [], []
        decode_bin1, encode = codec.decode_bin1, mesh_coordinator.encode_frame

        def spy_decode(payload):
            doc = decode_bin1(payload)
            decoded_tags.append(payload[2])
            body = doc.get("body", {})
            if doc.get("kind") == "reply" and "text" in body:
                replied.setdefault(body["key"], []).append(body["text"])
            return doc

        def spy_encode(doc, **kwargs):
            frame = encode(doc, **kwargs)
            sent.append((doc.get("kind"), frame[HEADER.size + 2]))
            if doc.get("kind") == "load":
                loads.append((doc["body"]["key"], doc["body"]["chain"]))
            return frame

        monkeypatch.setattr(codec, "decode_bin1", spy_decode)
        monkeypatch.setattr(mesh_coordinator, "encode_frame", spy_encode)
        spec = spec_for((2, 2))
        stream = build_conformance_stream(REGION, 40, 30, seed=3)
        reference = run_backend(make_backend("sharded", spec), stream, window=16)
        backend = make_backend("mesh", spec, n_peers=2, chunk_size=13, checkpoint_every=16)
        mesh = _run_with_hook(
            backend, stream, lambda coordinator: None,
            kill_first=lambda: backend.kill_worker(0),
        )
        assert check_parity([reference, mesh]) == []
        coordinator = backend.coordinator
        assert coordinator.failovers >= 1
        chains = coordinator._checkpoints
        assert sorted(chains) == ["s0", "s1", "s2", "s3"]
        for key, chain in chains.items():
            assert all(type(link.text) is str for link in chain)
            assert all(link.text in replied[key] for link in chain)
        assert loads, "no chain was restored"
        for key, texts in loads:
            assert texts and all(text in replied[key] for text in texts)
            docs = [json.loads(text) for text in texts]
            assert [doc["kind"] for doc in docs] == ["base"] + ["delta"] * (len(docs) - 1)
            assert [doc["parent"] for doc in docs[1:]] == [
                doc["checkpoint"] for doc in docs[:-1]
            ]
        assert PACKED_DOC_TAG not in decoded_tags
        assert {tag for kind, tag in sent if kind in ("snapshot", "load")} == {GENERIC_TAG}

    @staticmethod
    def _head(body: dict) -> dict:
        """The reply body a worker owes a ``snapshot`` op: its head, and a
        text the coordinator never parses."""
        return {
            "key": body["key"], "kind": "base", "checkpoint": body["checkpoint"],
            "parent": None, "text": "never parsed by the coordinator",
        }

    def test_a_matching_head_chains_the_text_unparsed(self):
        with _answered_by(lambda seq, body: reply_doc(seq, self._head(body))) as coordinator:
            assert coordinator._cut(0) == "w0"
            assert [tuple(link) for link in coordinator._checkpoints["s0"]] == [
                (1, None, "never parsed by the coordinator"),
            ]

    @pytest.mark.parametrize(
        "head, match",
        [
            (lambda body: {"checkpoint": body["checkpoint"] + 1}, "malformed snapshot reply"),
            (lambda body: {"key": "s1"}, "malformed snapshot reply"),
            (lambda body: {"kind": "delta", "parent": 7}, "not the requested parent"),
            (lambda body: {"text": {}}, "malformed snapshot reply"),
        ],
        ids=["another-checkpoint", "another-key", "unasked-delta", "text-not-a-string"],
    )
    def test_a_reply_whose_head_disagrees_fails_the_cut(self, head, match):
        """A snapshot reply whose head names another checkpoint id or
        shard, or a delta the cut did not ask for, raises at the cut and
        chains nothing."""
        with _answered_by(
            lambda seq, body: reply_doc(seq, {**self._head(body), **head(body)})
        ) as coordinator:
            with pytest.raises(MeshError, match=match):
                coordinator._cut(0)
            assert coordinator._checkpoints == {}

    def test_an_old_workers_document_reply_fails_the_cut(self):
        """A worker that answers the whole document, ``{"snapshot":
        {...}}``, instead of a head and a text is refused at the cut."""

        def document(seq, body):
            return reply_doc(seq, {"key": body["key"], "snapshot": {
                "format": "repro-shard-snapshot", "version": 4, "kind": "base",
                "checkpoint": body["checkpoint"], "state": {}, "pending": {},
            }})

        with _answered_by(document) as coordinator:
            with pytest.raises(MeshError, match="malformed snapshot reply"):
                coordinator._cut(0)
            assert coordinator._checkpoints == {}

    @_DAMAGED_TEXTS
    def test_a_damaged_chain_fails_the_mesh_with_its_code(self, damage, code):
        """Damage every chain's base text at the coordinator, then SIGKILL
        a worker: the survivor's ``load`` answers ``fail`` with the
        :class:`SnapshotError` code, and the mesh fails naming it instead
        of serving from a wrong shard."""
        spec = spec_for((2, 2))
        stream = build_conformance_stream(REGION, 40, 30, seed=3)
        windows = [StreamWindow.of(i, stream[i : i + 16]) for i in range(0, len(stream), 16)]
        backend = make_backend("mesh", spec, n_peers=2, chunk_size=16, checkpoint_every=0)
        backend.open()
        try:
            coordinator = backend.coordinator
            for window in windows[:2]:
                backend.handle(window)
            for fam in range(4):
                coordinator._scheduler.submit(fam, coordinator._job, coordinator._cut, fam)
            assert coordinator._scheduler.drain(timeout=30.0)
            with coordinator._state:
                for chain in coordinator._checkpoints.values():
                    chain[0] = chain[0]._replace(text=damage(chain[0].text))
            owner = coordinator._peers[coordinator.ownership[0]]
            backend.kill_worker(int(owner.label.rsplit("mesh-w", 1)[1]))
            with pytest.raises(MeshError, match=rf"failed 'load': \[{code}\]"):
                coordinator.flush()
            assert coordinator.failovers == 1
        finally:
            backend.close()

    def test_concurrent_cuts_survive_a_kill_under_fast_thread_switching(self):
        """Every family cut at every chunk, on more scheduler threads than
        cores, with the interpreter switching threads often and a worker
        SIGKILLed mid-stream: answers stay bit-identical."""
        spec = spec_for((2, 2))
        stream = build_conformance_stream(REGION, 60, 60, seed=21)
        reference = run_backend(make_backend("sharded", spec), stream, window=16)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            mesh, failovers = run_mesh_failover(
                spec, stream, n_peers=2, chunk_size=8, checkpoint_every=8,
                rebase_every=2, window=16,
            )
        finally:
            sys.setswitchinterval(interval)
        assert failovers >= 1
        assert check_parity([reference, mesh]) == []


# --------------------------------------------------------------------- #
# crash failover                                                         #
# --------------------------------------------------------------------- #


class TestMeshFailover:
    def test_sigkill_mid_batch_is_bit_identical(self):
        spec = spec_for((2, 2))
        stream = build_conformance_stream(REGION, 40, 30, seed=3)
        reference = run_backend(make_backend("sharded", spec), stream, window=16)
        run, failovers = run_mesh_failover(
            spec, stream, n_peers=3, chunk_size=13, checkpoint_every=32,
            window=16,
        )
        assert failovers >= 1
        assert check_parity([reference, run]) == []

    def test_sigkill_mid_checkpoint_is_bit_identical(self):
        spec = spec_for((2, 2))
        stream = build_conformance_stream(REGION, 40, 30, seed=9)
        reference = run_backend(make_backend("sharded", spec), stream, window=16)
        backend = make_backend(
            "mesh", spec, n_peers=2, chunk_size=11, checkpoint_every=16
        )
        killed = []

        def kill_during_checkpoint(key):
            # fires once each snapshot op of a cut is posted, before its
            # reply is read: kill the peer that holds the cut, once the
            # family has a chain to restore. The cut commits only a
            # snapshot the owner answered before it died; otherwise it
            # commits nothing and reruns on the survivor
            coordinator = backend.coordinator
            if killed or key not in coordinator._checkpoints:
                return
            killed.append(key)
            owner = coordinator._peers[coordinator.ownership[family_of(key)]]
            proc = backend.workers[int(owner.label.rsplit("mesh-w", 1)[1])]
            os.kill(proc.pid, signal.SIGKILL)
            proc.join(timeout=10.0)

        def arm(coordinator):
            coordinator._test_mid_checkpoint = kill_during_checkpoint

        mesh = _run_with_hook(backend, stream, arm)
        assert killed, "checkpoint cadence never fired; test is vacuous"
        assert backend_failovers(backend) >= 1
        assert check_parity([reference, mesh]) == []

    def test_sigkill_with_two_slices_of_one_family_in_flight(self):
        """Stop the owner of a family, send it two slices of that family,
        SIGKILL it: both replay on the survivor, the decisions are
        bit-identical, every task is answered once and the outcome table
        ends empty."""
        spec = spec_for((2, 2))
        stream = build_conformance_stream(REGION, 40, 30, seed=3)
        windows = [StreamWindow.of(i, stream[i : i + 8]) for i in range(0, len(stream), 8)]
        reference = make_backend("sharded", spec)
        reference.open()
        want = [reference.handle(window).workers for window in windows]
        reference.close()
        backend = make_backend("mesh", spec, n_peers=2, chunk_size=8, checkpoint_every=0)
        backend.open()
        try:
            coordinator = backend.coordinator
            got = [backend.handle(window).workers for window in windows[:2]]
            owner = coordinator._peers[coordinator.ownership[0]]
            pid = backend_pid(backend, int(owner.label.rsplit("mesh-w", 1)[1]))
            os.kill(pid, signal.SIGSTOP)
            in_flight = []
            rest = iter(windows[2:])
            for window in rest:
                marks = coordinator.ingest(window.ids, window.xy, window.is_task, window.times)
                tasks = [i for i, t in zip(window.ids, window.is_task) if t]
                in_flight.append((marks, tasks))
                if sum(0 in marks for marks, _ in in_flight) == 2:
                    break
            assert sum(0 in marks for marks, _ in in_flight) == 2
            assert coordinator._acked[0] < in_flight[-1][0][0]
            assert owner.outstanding >= 2  # both slices unanswered
            os.kill(pid, signal.SIGKILL)
            got += [coordinator.result_of(marks, tasks) for marks, tasks in in_flight]
            got += [backend.handle(window).workers for window in rest]
            assert coordinator.failovers == 1
            assert coordinator.tasks_answered == 30
            assert coordinator._results == {}
        finally:
            backend.close()
        assert got == want

    def test_second_kill_during_recovery_still_converges(self):
        spec = spec_for((2, 2))
        stream = build_conformance_stream(REGION, 40, 30, seed=13)
        reference = run_backend(make_backend("sharded", spec), stream, window=16)
        backend = make_backend(
            "mesh", spec, n_peers=3, chunk_size=11, checkpoint_every=32
        )
        # pids we SIGKILLed ourselves; is_alive() is not trustworthy here
        # (the first victim lingers as a zombie at hook time)
        killed_pids = set()
        second_kill = []

        def first_kill():
            killed_pids.add(backend_pid(backend, 0))
            backend.kill_worker(0)

        def kill_a_survivor(dead_name):
            # the failover handler just reassigned the dead peer's
            # families; kill another worker while that recovery is live
            if second_kill:
                return
            for proc in backend.workers:
                if proc.pid not in killed_pids:
                    killed_pids.add(proc.pid)
                    second_kill.append(proc.pid)
                    os.kill(proc.pid, signal.SIGKILL)
                    proc.join(timeout=10.0)
                    return

        def arm(coordinator):
            coordinator._test_on_failover = kill_a_survivor

        mesh = _run_with_hook(backend, stream, arm, kill_first=first_kill)
        assert second_kill, "recovery never ran; the double-kill is vacuous"
        assert backend_failovers(backend) >= 2
        assert check_parity([reference, mesh]) == []


# --------------------------------------------------------------------- #
# hot-shard balancing (split and migrate)                                #
# --------------------------------------------------------------------- #


def _fleet_stream(worker_locs, task_locs):
    """A warm fleet at t=0, then one task per 0.01 time units."""
    return list(
        requests_from_events(
            merge_event_streams(
                [
                    WorkerArrival(time=0.0, worker_id=i, location=loc)
                    for i, loc in enumerate(worker_locs)
                ],
                [
                    TaskArrival(time=1.0 + 0.01 * i, task_id=i, location=loc)
                    for i, loc in enumerate(task_locs)
                ],
            )
        )
    )


def _hot_cell_stream():
    """400 workers and 300 tasks, all in the bottom-left quarter of s0."""
    rng = np.random.default_rng(0)
    w = rng.uniform(0, 100, size=(400, 2)) * [0.5, 0.5]
    t = rng.uniform(0, 100, size=(300, 2)) * [0.5, 0.5]
    return _fleet_stream(w, t)


def _west_stream():
    """All traffic on the west cells s0 and s2, which start on one peer."""
    rng = np.random.default_rng(0)
    w = np.column_stack([rng.uniform(0, 100, 500), rng.uniform(0, 200, 500)])
    t = np.column_stack([rng.uniform(0, 100, 400), rng.uniform(0, 200, 400)])
    return _fleet_stream(w, t)


BALANCED_SPEC = ServiceSpec(region=REGION, shards=(2, 2), grid_nx=6, seed=1)
SPLIT = BalancerConfig(window=128, min_tasks=32, split_share=0.5)
MIGRATE = BalancerConfig(
    window=128, min_tasks=32, split_share=0.95, migrate_imbalance=1.3
)


def _balanced_run(requests, balancer, *, n_peers=2, checkpoint_every=0, kill=False):
    """One mesh run with 64-event windows and chunks; SIGKILLs worker 0
    two thirds of the way through when ``kill``."""
    stats: dict = {}
    run, failovers = run_mesh_failover(
        BALANCED_SPEC,
        requests,
        n_peers=n_peers,
        kill_after=(2 * len(requests)) // 3 if kill else len(requests) + 1,
        window=64,
        chunk_size=64,
        checkpoint_every=checkpoint_every,
        balancer=balancer,
        stats=stats,
    )
    return run, failovers, stats


@pytest.fixture(scope="module")
def split_baseline():
    return _balanced_run(_hot_cell_stream(), SPLIT)


class TestMeshBalancer:
    def test_hot_cell_split_serves_parent_pool(self, split_baseline):
        """All traffic in one cell: the cell splits, new registrations go
        to sub-shards, and tasks still drain the pre-split parent pool."""
        run, _, stats = split_baseline
        assert stats["cell_splits"] >= 1
        assert len(run.assignments) + len(run.unassigned) == 300
        assert run.report.tasks_assigned == 300  # parent pool kept serving
        keys = {str(s.shard_id) for s in run.report.shards}
        assert {"s0/0", "s0/1", "s0/2", "s0/3"} <= keys

    @pytest.mark.parametrize(
        "shape",
        [
            {"checkpoint_every": 96},
            {"n_peers": 1},
            {"checkpoint_every": 96, "kill": True},
        ],
        ids=["checkpoints", "one-peer", "sigkill"],
    )
    def test_balanced_run_is_identical_across_shapes(self, split_baseline, shape):
        run, failovers, stats = _balanced_run(_hot_cell_stream(), SPLIT, **shape)
        assert stats["cell_splits"] == split_baseline[2]["cell_splits"]
        if shape.get("kill"):
            assert failovers >= 1
        assert check_parity([split_baseline[0], run]) == []

    def test_imbalance_triggers_migration(self):
        requests = _west_stream()
        backend = make_backend(
            "mesh",
            BALANCED_SPEC,
            n_peers=2,
            chunk_size=64,
            checkpoint_every=96,
            balancer=MIGRATE,
        )
        run = run_backend(backend, requests, window=64)
        coordinator = backend.coordinator
        # one move balances the two hot families; a balancer that read a
        # stale placement while the move was queued would make more
        assert coordinator.migrations == 1
        assert coordinator.cell_splits == 0
        # the two hot families no longer share a peer
        assert coordinator.ownership[0] != coordinator.ownership[2]
        reference = run_backend(
            make_backend("sharded", BALANCED_SPEC), requests, window=64
        )
        assert check_parity([reference, run]) == []

    def test_migrated_family_survives_a_kill(self):
        """SIGKILL the peer a family just migrated onto: failover must
        restore that family from the chain its migration cut and replay
        the journal from there, not from before the move."""
        requests = _west_stream()
        backend = make_backend(
            "mesh",
            BALANCED_SPEC,
            n_peers=2,
            chunk_size=64,
            checkpoint_every=0,
            balancer=MIGRATE,
        )
        pairs, misses = [], []
        with AssignmentClient(backend) as client:
            for answered, response in enumerate(client.stream(requests, window=64), 1):
                if isinstance(response, TaskDecision):
                    if response.worker_id is None:
                        misses.append(response.task_id)
                    else:
                        pairs.append((response.task_id, response.worker_id))
                if answered == (8 * len(requests)) // 9:
                    coordinator = backend.coordinator
                    assert coordinator.migrations == 1
                    # the destination is the peer now holding 3 families
                    peers = coordinator.telemetry()["peers"].values()
                    dst = next(p for p in peers if len(p["families"]) == 3)
                    backend.kill_worker(int(dst["label"].rsplit("mesh-w", 1)[1]))
            client.flush()
            report = client.report()
        assert backend.coordinator.failovers == 1
        run = BackendRun("mesh", tuple(pairs), tuple(misses), report)
        reference = run_backend(
            make_backend("sharded", BALANCED_SPEC), requests, window=64
        )
        assert check_parity([reference, run]) == []


    def test_family_returns_to_its_old_peer_after_a_kill(self):
        """Kill a migration's destination before anything reaches it:
        failover hands the family back to the peer that just dropped its
        shards, which must restore them rather than trust stale state."""
        requests = _west_stream()
        backend = make_backend(
            "mesh",
            BALANCED_SPEC,
            n_peers=2,
            chunk_size=64,
            checkpoint_every=0,
            balancer=MIGRATE,
        )
        killed = []

        def arm(coordinator):
            migrate = coordinator._migrate

            def migrate_then_kill_destination(fam, dst):
                migrate(fam, dst)
                if coordinator.migrations and not killed:
                    label = coordinator._peers[dst].label
                    proc = backend.workers[int(label.rsplit("mesh-w", 1)[1])]
                    killed.append(proc.pid)
                    os.kill(proc.pid, signal.SIGKILL)
                    proc.join(timeout=10.0)

            coordinator._migrate = migrate_then_kill_destination

        mesh = _run_with_hook(backend, requests, arm)
        assert killed, "no migration ran; the kill is vacuous"
        assert backend_failovers(backend) == 1
        reference = run_backend(
            make_backend("sharded", BALANCED_SPEC), requests, window=16
        )
        assert check_parity([reference, mesh]) == []


class TestMeshLifecycle:
    def test_a_fail_sent_before_hanging_up_is_read_before_the_peer_is_lost(self):
        """A worker answers an op with ``fail`` and closes its socket; a
        later write the closed socket refuses still leaves that op failed
        with its code, not lost (which would fail over instead of failing
        the mesh with the worker's reason). The reader is held until that
        write fails, so the ``fail`` is still unread when it does."""
        ours, theirs = socket.socketpair()
        write_failed = threading.Event()

        class HeldReader:
            def __init__(self, sock):
                self._sock = sock

            def recv(self, size):
                write_failed.wait(10.0)
                return self._sock.recv(size)

            def sendall(self, data):
                try:
                    return self._sock.sendall(data)
                except OSError:
                    write_failed.set()
                    raise

            def __getattr__(self, name):
                return getattr(self._sock, name)

        peer = mesh_coordinator.MeshPeer("w0", HeldReader(ours), ())
        peer.start()
        try:
            load = peer.send("load", {"key": "s0", "chain": []})
            theirs.sendall(encode_frame(fail_doc(1, "snapshot-bad-format", "bad chain")))
            theirs.close()
            with pytest.raises(mesh_coordinator.PeerLost):
                for _ in range(100):
                    peer.send("flush", {})
            kind, body, _ = load.result(timeout=10.0)
            assert (kind, body["code"]) == ("fail", "snapshot-bad-format")
        finally:
            write_failed.set()
            ours.close()

    def test_end_to_end_accounts_for_every_event(self):
        requests = build_conformance_stream(REGION, 600, 300, seed=3)
        backend = make_backend("mesh", spec_for((2, 2)), n_peers=2)
        run = run_backend(backend, requests)
        assert backend.coordinator.tasks_answered == 300
        assert run.report.tasks_total == 300
        assert run.report.workers_registered == 600
        assert run.report.tasks_assigned == len(run.assignments) > 0
        # no worker consumed twice, mesh-wide
        assigned = [w for _, w in run.assignments]
        assert len(set(assigned)) == len(assigned)

    @pytest.mark.parametrize("kill", [False, True], ids=["steady", "failover"])
    def test_outcome_table_empties_as_windows_are_answered(self, kill):
        """The coordinator keeps a task's outcome only until its window
        takes it: once a stream's windows are answered the table is
        empty, and a failover's replayed outcomes are dropped, not kept
        for a task no window awaits. Draining the scheduler then leaves
        no op in flight, which is what a settle relies on."""
        stream = build_conformance_stream(REGION, 60, 40, seed=5)
        backend = make_backend(
            "mesh", spec_for((2, 2)), n_peers=2, chunk_size=16, checkpoint_every=32
        )
        with AssignmentClient(backend) as client:
            for answered, _ in enumerate(client.stream(stream, window=16), 1):
                if kill and answered == len(stream) // 2:
                    backend.kill_worker(0)
            coordinator = backend.coordinator
            # once the windows are answered, draining the scheduler (cuts,
            # replays) leaves no op unanswered on any peer
            assert coordinator._scheduler.drain(timeout=30.0)
            assert [p.outstanding for p in coordinator._peers.values()] == [0, 0]
            assert coordinator.failovers == int(kill)
            assert coordinator.tasks_answered == 40
            assert coordinator._results == {}

    @pytest.mark.parametrize(
        "chunk_size, refused",
        [
            # worker 0, task 0, then worker 0 again: refused in chunk one
            (256, [(0, False), (0, True), (0, False)]),
            # the repeat lands in the third chunk, two chunks already out
            (2, [(0, False), (0, True), (1, False), (1, True), (0, False)]),
        ],
        ids=["first-chunk", "third-chunk"],
    )
    def test_a_refused_window_leaves_no_outcome_behind(self, chunk_size, refused):
        """A window refused at a row behaves as it does on the engine:
        the rows before it are sent and their outcomes taken out of the
        table before the error is raised, so the table stays empty,
        every family is sent up to its journal end, and later windows
        still decide as the engine does."""
        spec = spec_for((2, 2))
        window = [
            SubmitTask(i, (10.0, 10.0 + i)) if task else RegisterWorker(i, (10.0, 10.0 + i))
            for i, task in refused
        ]
        later = [
            SubmitTask(r.task_id + 10, r.location, r.time)
            if isinstance(r, SubmitTask)
            else RegisterWorker(r.worker_id + 10, r.location, r.time)
            for r in build_conformance_stream(REGION, 40, 30, seed=4)
        ]
        runs = []
        for kind, kwargs in (
            ("sharded", {}),
            ("mesh", {"n_peers": 2, "chunk_size": chunk_size}),
        ):
            backend = make_backend(kind, spec, **kwargs)
            with AssignmentClient(backend) as client:
                with pytest.raises(ApiError) as info:
                    client.call(StreamWindow.of(0, window))
                assert info.value.code == "rejected"
                if kind == "mesh":
                    coordinator = backend.coordinator
                    assert coordinator._results == {}
                    with coordinator._state:
                        journal = coordinator._journal
                        ends = [journal.end(fam) for fam in journal.families]
                        sent = [journal.sent(fam) for fam in journal.families]
                    assert sent == ends and sum(ends) == len(window) - 1
                decisions = tuple(
                    (r.task_id, r.worker_id)
                    for r in client.stream(later, window=16)
                    if isinstance(r, TaskDecision)
                )
                if kind == "mesh":
                    assert coordinator._results == {}
                report = client.report()
            runs.append(BackendRun(kind, decisions, (), report))
        assert check_parity(runs) == []
        assert runs[0].report.tasks_total == 30 + sum(t for _, t in refused[:-1])

    def test_no_reply_lock_is_held_across_a_send(self):
        """Every frame the coordinator writes — slices, restores, cuts,
        barriers, a failover's replay — goes out with the state lock
        that reply handling takes released: a peer blocked writing
        replies can always be drained."""
        spec = spec_for((2, 2))
        stream = build_conformance_stream(REGION, 60, 40, seed=9)
        backend = make_backend(
            "mesh", spec, n_peers=2, chunk_size=8, checkpoint_every=16
        )
        held: list[str] = []

        class Probe:
            def __init__(self, sock, state):
                self._sock, self._state = sock, state

            def sendall(self, data):
                if self._state._is_owned():
                    held.append(threading.current_thread().name)
                return self._sock.sendall(data)

            def __getattr__(self, name):
                return getattr(self._sock, name)

        pairs, misses = [], []
        with AssignmentClient(backend) as client:
            coordinator = backend.coordinator
            for peer in coordinator._peers.values():
                peer.sock = Probe(peer.sock, coordinator._state)
            for answered, response in enumerate(client.stream(stream, window=16), 1):
                if isinstance(response, TaskDecision):
                    if response.worker_id is None:
                        misses.append(response.task_id)
                    else:
                        pairs.append((response.task_id, response.worker_id))
                if answered == len(stream) // 2:
                    backend.kill_worker(1)
            client.flush()
            report = client.report()
        assert held == []
        assert backend.coordinator.failovers == 1
        reference = run_backend(make_backend("sharded", spec), stream)
        run = BackendRun("mesh", tuple(pairs), tuple(misses), report)
        assert check_parity([reference, run]) == []

    def test_duplicate_worker_ids_rejected_mesh_wide(self):
        backend = make_backend("mesh", spec_for((2, 2)), n_peers=1)
        backend.open()
        try:
            with pytest.raises(ValueError, match="already registered"):
                _ingest(
                    backend.coordinator,
                    [_worker(1, 10.0, 10.0), _worker(1, 190.0, 190.0)],
                )
        finally:
            backend.close()

    def test_losing_every_peer_fails_loudly(self):
        """Only losing every peer is fatal, and it must surface as a
        MeshError rather than a hang."""
        backend = make_backend("mesh", spec_for((2, 2)), n_peers=2)
        backend.open()
        try:
            coordinator = backend.coordinator
            for index in range(2):
                backend.kill_worker(index)
                backend.workers[index].join(timeout=10.0)
            with pytest.raises(MeshError):
                marks = _ingest(
                    coordinator, [_worker(0, 10.0, 10.0), _task(0, 15.0, 15.0)]
                )
                coordinator.result_of(marks, [0])
        finally:
            backend.close()

    def test_close_answers_a_caller_waiting_for_an_outcome(self):
        """A caller blocked in result_of must hear about close() at once,
        not after the whole liveness timeout."""
        backend = make_backend("mesh", spec_for((2, 2)), n_peers=2)
        backend.open()
        coordinator = backend.coordinator
        coordinator.liveness_timeout = 30.0
        hold = threading.Event()
        acknowledge = coordinator._acknowledge

        def held_acknowledge(*args):
            hold.wait(60.0)
            return acknowledge(*args)

        coordinator._acknowledge = held_acknowledge
        outcome: dict = {}

        def serve():
            try:
                backend.handle(
                    StreamWindow.of(
                        0,
                        [
                            RegisterWorker(worker_id=0, location=(10.0, 10.0)),
                            SubmitTask(task_id=0, location=(15.0, 15.0)),
                        ],
                    )
                )
            except MeshError as exc:
                outcome["error"] = exc
            outcome["at"] = time.monotonic()

        caller = threading.Thread(target=serve, daemon=True)
        caller.start()
        deadline = time.monotonic() + 10.0
        while coordinator._journal.end(0) < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert [coordinator._journal.end(fam) for fam in range(4)] == [2, 0, 0, 0]
        closing = threading.Thread(target=backend.close, daemon=True)
        began = time.monotonic()
        closing.start()
        caller.join(timeout=10.0)
        # close() joins each peer's reader: let the held reply go once the
        # caller has its answer (a reply that lands first would answer it)
        hold.set()
        closing.join(timeout=30.0)
        assert "closed" in str(outcome.get("error"))
        assert outcome["at"] - began < 5.0

    def test_closed_coordinator_refuses_work(self):
        """Shard state dies with the peers: a closed coordinator must
        refuse to serve, not silently start over from empty shards."""
        backend = make_backend("mesh", spec_for((2, 2)), n_peers=1)
        run_backend(backend, build_conformance_stream(REGION, 20, 10, seed=1))
        coordinator = backend.coordinator
        assert coordinator.tasks_answered == 10  # plain reads still fine
        with pytest.raises(MeshError, match="closed"):
            coordinator.report()
        with pytest.raises(MeshError, match="closed"):
            _ingest(coordinator, [_worker(99, 10, 10)])

    def test_failed_open_reaps_listener_and_workers(self, monkeypatch):
        """A start() that raises must not leak the listener, the
        acceptor or the forked worker processes."""
        backend = make_backend("mesh", spec_for((2, 2)), n_peers=2)
        spawned = []

        def failing_start(coordinator):
            spawned.extend(backend.workers)
            raise MeshError("only 1 of 2 mesh workers joined in time")

        monkeypatch.setattr(MeshCoordinator, "start", failing_start)
        with pytest.raises(MeshError, match="joined in time"):
            backend.open()
        backend.close()
        assert len(spawned) == 2
        for proc in spawned:
            assert not proc.is_alive()
        assert backend.coordinator._listener.fileno() == -1
        assert not backend.coordinator._acceptor.is_alive()


def backend_failovers(backend) -> int:
    return backend.coordinator.failovers


def backend_pid(backend, index: int) -> int:
    return backend.workers[index].pid


def _run_with_hook(backend, requests, arm, kill_first=None):
    """run_backend with a coordinator hook armed after open, plus an
    optional mid-stream first kill."""
    pairs, misses = [], []
    with AssignmentClient(backend) as client:
        arm(backend.coordinator)
        answered = 0
        for response in client.stream(requests, window=16):
            answered += 1
            if isinstance(response, TaskDecision):
                if response.worker_id is None:
                    misses.append(response.task_id)
                else:
                    pairs.append((response.task_id, response.worker_id))
            if kill_first is not None and answered == len(requests) // 2:
                kill_first()
        client.flush()
        report = client.report()
    return BackendRun(
        name="mesh-hooked",
        assignments=tuple(pairs),
        unassigned=tuple(misses),
        report=report,
    )


# --------------------------------------------------------------------- #
# coordinator handshake discipline                                       #
# --------------------------------------------------------------------- #


def _exchange_hello(address, doc) -> dict:
    """Send one frame to the coordinator; return its single answer frame
    and assert the connection is closed afterwards."""
    with socket.create_connection(address, timeout=10.0) as sock:
        sock.sendall(handshake_frame(doc))
        decoder = FrameDecoder()
        frames: list = []
        while True:
            data = sock.recv(65536)
            if not data:
                break
            frames.extend(decoder.feed(data))
        assert len(frames) == 1
        return frames[0]


class TestCoordinatorHandshake:
    @pytest.fixture()
    def coordinator(self):
        coordinator = MeshCoordinator(REGION, shards=(2, 2), expected_workers=1)
        coordinator.listen()
        yield coordinator
        coordinator.close()

    def test_junk_hello_answers_a_stable_code_then_closes(self, coordinator):
        hello = hello_doc(features=(role_feature(MESH_WORKER_ROLE),))
        hello["surprise"] = True  # unknown top-level key: junk, not future
        answer = _exchange_hello(coordinator.address, hello)
        assert answer["body"]["code"] == "invalid-request"
        assert coordinator.rejected_handshakes == 1

    def test_roleless_hello_is_refused(self, coordinator):
        answer = _exchange_hello(coordinator.address, hello_doc())
        assert answer["body"]["code"] == "invalid-request"
        assert "role" in answer["body"]["message"]

    def test_foreign_schema_maps_to_unsupported_version(self, coordinator):
        hello = hello_doc(features=(role_feature(MESH_WORKER_ROLE),))
        hello["schema"] = "repro.gateway2"
        answer = _exchange_hello(coordinator.address, hello)
        assert answer["body"]["code"] == "unsupported-version"

    def test_seed_must_be_an_int(self):
        # keyed shard seeding derives every shard stream from an int root,
        # like the engine and ServiceSpec; there is no generator path
        with pytest.raises(ValueError, match="seed"):
            MeshCoordinator(REGION, seed=np.random.default_rng(0))

    def test_close_wakes_the_parked_acceptor(self):
        coordinator = MeshCoordinator(REGION, shards=(2, 2), expected_workers=1)
        coordinator.listen()
        time.sleep(0.5)  # the acceptor thread is parked in accept()
        began = time.monotonic()
        coordinator.close()
        assert time.monotonic() - began < 1.0
        assert not coordinator._acceptor.is_alive()

    def test_rejections_leave_the_coordinator_serving(self, coordinator):
        _exchange_hello(coordinator.address, hello_doc())
        _exchange_hello(coordinator.address, {"schema": None})
        assert coordinator.rejected_handshakes == 2
        # a real worker can still join after the junk
        from repro.mesh import spawn_local_worker

        proc = spawn_local_worker(coordinator.address, name="late-worker")
        try:
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if any(
                    peer["alive"]
                    for peer in coordinator.telemetry()["peers"].values()
                ):
                    break
                time.sleep(0.02)
            else:
                pytest.fail("worker never joined after handshake rejections")
        finally:
            proc.terminate()
            proc.join(timeout=5.0)


# --------------------------------------------------------------------- #
# CLI                                                                    #
# --------------------------------------------------------------------- #


class TestMeshCli:
    def test_worker_requires_connect(self):
        from repro.mesh.__main__ import main

        with pytest.raises(SystemExit):
            main(["--worker"])

    def test_address_parsing(self):
        from repro.mesh.__main__ import _parse_address

        assert _parse_address("127.0.0.1:7700") == ("127.0.0.1", 7700)
        with pytest.raises(ValueError):
            _parse_address("7700")

"""The binary wire codec, end to end: one codec, one layout per job.

Three layers of guarantees:

* **one layout per job** — every api message kind with a document form,
  and every mesh op and reply but ``events`` and its ``events_reply``,
  rides :data:`~repro.gateway.protocol.GENERIC_TAG`; a stream window,
  its answer and the mesh pair ride their own row layouts, traced or
  not; and :func:`decode_bin1` refuses every other layout (old per-kind
  tags and stream rows alike) with a structured ``invalid-request``;
* **frame fidelity** — the columnar stream rows and the mesh events
  rows write exactly the bytes of a per-row ``struct`` packer (head,
  rows, tail), round-trip their columns exactly, and the stream rows
  refuse (``invalid-request``) any shape they cannot carry exactly;
* **hostile bytes** — truncation at every boundary, single-byte
  mutations, junk tags, bad row kinds and version skew always surface
  as structured :class:`~repro.api.errors.ApiError`, never a raw
  ``struct.error`` — the same taxonomy discipline as the JSON fuzz.

Plus the outbound-framing regression: an oversize *response* answers a
structured error and keeps the session alive (the bugfix mirror of the
inbound ``check_frame_length``).
"""

from __future__ import annotations

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ServiceSpec, make_backend
from repro.api.conformance import build_conformance_stream, run_backend
from repro.api.errors import ApiError, UnsupportedVersion, ValidationFailed
from repro.api.messages import (
    ErrorInfo,
    Flush,
    Flushed,
    GetReport,
    RegisterWorker,
    ReportResult,
    Request,
    Response,
    StreamWindow,
    SubmitTask,
    TaskDecision,
    WindowResult,
    WorkerRegistered,
    to_wire,
)
from repro.api.middleware import RequestValidator
from repro.cluster.dispatch import EVENT_ROW_DTYPE
from repro.gateway import GatewayConfig, RemoteBackend, codec, serve_gateway
from repro.gateway.codec import (
    decode_bin1,
    decode_stream_batch,
    decode_stream_result,
    encode_bin1,
    encode_stream_batch,
    encode_stream_result,
)
from repro.gateway.protocol import (
    BIN1_MAGIC,
    BIN1_WIRE_VERSION,
    GENERIC_TAG,
    MESH_EVENTS_REPLY_TAG,
    MESH_EVENTS_TAG,
    STREAM_BATCH_TAG,
    STREAM_RESULT_TAG,
)
from repro.geometry import Box
from repro.mesh.protocol import (
    MESH_SCHEMA,
    OP_KINDS,
    event_columns,
    events_reply_doc,
    fail_doc,
    op_doc,
    reply_doc,
)
from repro.obs.trace import Tracer
from repro.service.metrics import ServiceReport

#: The error codes a hostile peer may surface — nothing else escapes.
STABLE_CODES = {
    "invalid-request",
    "unsupported-version",
    "rate-limited",
    "rejected",
    "unavailable",
    "internal",
}


def _spec(shards=(2, 2)) -> ServiceSpec:
    return ServiceSpec(
        region=Box.square(100.0),
        shards=shards,
        grid_nx=6,
        epsilon=0.5,
        batch_size=8,
        seed=0,
    )


# --------------------------------------------------------------------- #
# one layout per job                                                     #
# --------------------------------------------------------------------- #


def _one_message_per_kind() -> list:
    """One message of every kind with a document form."""
    report = ServiceReport(
        shards=(),
        wall_seconds=1.0,
        sim_duration=2.0,
        latency_p50_ms=0.5,
        latency_p95_ms=0.9,
        mean_reported_distance=3.0,
        mean_true_distance=2.5,
    )
    return [
        Flush(),
        GetReport(wall_seconds=2.5),
        Flushed(),
        ReportResult(report),
        ErrorInfo(code="rejected", message="m", retryable=False, detail="d"),
    ]


def _prefixed(tag: int, body: bytes = b"") -> bytes:
    return struct.pack(">BBB", BIN1_MAGIC, BIN1_WIRE_VERSION, tag) + body


class TestOneLayoutPerJob:
    def test_every_api_message_kind_rides_the_generic_tag(self):
        """Every kind but the window pair and the register/submit verbs
        with their answers: a window and its answer have no document
        form, and a verb travels only as a window's row."""
        messages = _one_message_per_kind()
        kinds = {type(m).kind for m in messages}
        rows = {
            cls.kind
            for cls in (
                StreamWindow,
                WindowResult,
                RegisterWorker,
                SubmitTask,
                WorkerRegistered,
                TaskDecision,
            )
        }
        assert kinds == {cls.kind for cls in (*Request, *Response)} - rows
        for message in messages:
            doc = to_wire(message)
            payload = encode_bin1(doc)
            assert payload[2] == GENERIC_TAG, type(message).kind
            assert decode_bin1(payload) == doc

    @pytest.mark.parametrize(
        "payload",
        [
            # the old register_worker tag with its one >qddd row
            _prefixed(0x01, struct.pack(">qddd", 7, 1.5, -2.25, 0.5)),
            _prefixed(0x03),  # the old flush tag: no body at all
            # stream rows, well formed, zero rows: their own decoders
            # read them, decode_bin1 does not
            _prefixed(STREAM_BATCH_TAG, struct.pack(">QII", 0, 0, 0)),
            _prefixed(STREAM_RESULT_TAG, struct.pack(">QI", 0, 0)),
        ],
        ids=["register_worker", "flush", "stream_batch", "stream_result"],
    )
    def test_other_layouts_are_invalid_requests(self, payload):
        with pytest.raises(ValidationFailed) as info:
            decode_bin1(payload)
        assert info.value.code == "invalid-request"

    def test_every_other_mesh_doc_rides_the_generic_tag(self):
        docs = [op_doc(op, 1, {"key": "s0"}) for op in OP_KINDS if op != "events"]
        docs += [reply_doc(1, {"key": "s0"}), fail_doc(1, "rejected", "m")]
        for doc in docs:
            payload = encode_bin1(doc)
            assert payload[2] == GENERIC_TAG, doc["kind"]
            assert decode_bin1(payload) == doc

    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    def test_a_live_mesh_sends_events_only_as_rows(self, traced, monkeypatch):
        """Every frame a coordinator writes or reads over a run with
        checkpoint cuts: ``events`` ops and their replies never ride
        GENERIC_TAG, traced or not, and every other mesh frame does."""
        seen = []
        encode, decode = codec.encode_bin1, codec.decode_bin1

        def encoding(doc):
            payload = encode(doc)
            seen.append((doc.get("schema"), doc.get("kind"), payload[2]))
            return payload

        def decoding(payload):
            doc = decode(payload)
            seen.append((doc.get("schema"), doc.get("kind"), payload[2]))
            return doc

        monkeypatch.setattr(codec, "encode_bin1", encoding)
        monkeypatch.setattr(codec, "decode_bin1", decoding)
        tracer = Tracer() if traced else None
        spec = ServiceSpec(
            region=Box.square(200.0), shards=(2, 2), grid_nx=6, batch_size=8, seed=11
        )
        backend = make_backend(
            "mesh", spec, n_peers=2, chunk_size=7, checkpoint_every=16, tracer=tracer
        )
        run_backend(
            backend, build_conformance_stream(spec.region, 30, 20, seed=3),
            window=16, tracer=tracer,
        )
        mesh = [(kind, tag) for schema, kind, tag in seen if schema == MESH_SCHEMA]
        kinds = {kind for kind, _ in mesh}
        assert {"events", "events_reply", "snapshot", "reply"} <= kinds
        for kind, tag in mesh:
            want = {"events": MESH_EVENTS_TAG, "events_reply": MESH_EVENTS_REPLY_TAG}
            assert tag == want.get(kind, GENERIC_TAG), kind
        if traced:
            names = {record["name"] for record in tracer.spans}
            assert {"mesh.dispatch", "worker.execute"} <= names


# --------------------------------------------------------------------- #
# stream rows: column round trips                                        #
# --------------------------------------------------------------------- #


def _window() -> StreamWindow:
    return StreamWindow.of(
        4,
        [
            RegisterWorker(7, (1.5, -2.25), 0.5),
            SubmitTask(3, (0.0, 99.5), 1.0),
            RegisterWorker(8, (-4.0, 4.0), 1.5),
        ],
    )


def _window_result() -> WindowResult:
    return WindowResult(4, [False, True, True], [7, 3, 4], [7, None])


def _events_op() -> dict:
    """An ``events`` body over a split cell's key table."""
    rows = [(0, 0, 7, 1.5, -2.25), (2, 1, 3, 0.0, 99.5), (1, 0, 8, -4.0, 4.0)]
    return {
        "keys": ["s3", "s3/0", "s3/1"],
        "rows": np.array(rows, dtype=EVENT_ROW_DTYPE),
    }


class TestStreamEquivalence:
    """A window and its answer have one layout, rows, on every session:
    there is no document to fall back to, so a shape the rows cannot
    carry opts out of the wire by failing ``invalid-request``."""

    def test_batch_round_trips_identically(self):
        window = _window()
        assert decode_stream_batch(encode_stream_batch(window)) == (window, None)
        trace = {"trace_id": "ab" * 16, "span_id": "cd" * 8}
        assert decode_stream_batch(encode_stream_batch(window, trace)) == (
            window,
            trace,
        )

    def test_result_round_trips_identically(self):
        result = _window_result()
        assert decode_stream_result(encode_stream_result(result)) == result

    def test_empty_windows_are_zero_rows(self):
        window = StreamWindow.of(9, [])
        payload = encode_stream_batch(window)
        assert payload == _prefixed(STREAM_BATCH_TAG, struct.pack(">QII", 9, 0, 0))
        assert decode_stream_batch(payload) == (window, None)
        result = WindowResult(9, [], [], [])
        payload = encode_stream_result(result)
        assert payload == _prefixed(STREAM_RESULT_TAG, struct.pack(">QI", 9, 0))
        assert decode_stream_result(payload) == result

    @pytest.mark.parametrize(
        "batch",
        [
            RegisterWorker(1, (0.0, 0.0)),  # not a window at all
            Flush(),  # a barrier is no window
            StreamWindow(0, [False], ["x"], [(0.0, 0.0)], [0.0]),  # no int id
            # id outside i64: the rows cannot carry it exactly
            StreamWindow.of(0, [RegisterWorker(2**70, (0.0, 0.0))]),
        ],
    )
    def test_unsupported_batch_shapes_opt_out(self, batch):
        with pytest.raises(ValidationFailed) as info:
            encode_stream_batch(batch)
        assert info.value.code == "invalid-request"

    @pytest.mark.parametrize(
        "result",
        [
            WorkerRegistered(1),  # not a window result
            Flushed(),  # nor is a barrier's answer
            WindowResult(0, [True], [1], []),  # no outcome for its task row
            WindowResult(0, [True], [1], [2**70]),
        ],
    )
    def test_unsupported_result_shapes_opt_out(self, result):
        with pytest.raises(ValidationFailed) as info:
            encode_stream_result(result)
        assert info.value.code == "invalid-request"

    def test_seqs_outside_i64_opt_out(self):
        """The head's u64 carries no negative seq and none past 2**64;
        a seq in between but past int64 rides the head, and the
        validator refuses it on every backend."""
        for seq in (-1, 2**64):
            with pytest.raises(ValidationFailed):
                encode_stream_batch(StreamWindow.of(seq, [RegisterWorker(1, (0.0, 0.0))]))
            with pytest.raises(ValidationFailed):
                encode_stream_result(WindowResult(seq, [False], [1], []))
        window, _ = decode_stream_batch(encode_stream_batch(StreamWindow.of(2**63, [])))
        assert window.seq == 2**63
        with pytest.raises(ValidationFailed) as info:
            RequestValidator().validate(window)
        assert info.value.code == "invalid-request"


# --------------------------------------------------------------------- #
# stream rows: the bytes of the per-row packer                           #
# --------------------------------------------------------------------- #

#: The per-row oracle: what the rows looked like when each was packed
#: by its own ``struct`` call.
_WINDOW_ROW = struct.Struct(">Bqddd")  # kind, id, x, y, time
_RESULT_ROW = struct.Struct(">Bqq")  # kind, id, worker (or 0)

_EVENT_ROW = struct.Struct(">IBqdd")  # key index, kind, id, x, y
_EVENTS_REPLY_ROW = struct.Struct(">Bq")  # assigned, worker (or 0)

_IDS = st.integers(0, 2**63 - 1)
_I64 = st.integers(-(2**63), 2**63 - 1)
_SEQS = st.integers(0, 2**64 - 1)  # the u64 head of every row payload
_TRACES = st.one_of(
    st.none(),
    st.fixed_dictionaries(
        {"trace_id": st.text(max_size=32), "span_id": st.text(max_size=16)}
    ),
)
_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308]),
)


@st.composite
def _windows(draw) -> StreamWindow:
    n = draw(st.integers(0, 24))
    return StreamWindow(
        draw(_SEQS),
        draw(st.lists(st.booleans(), min_size=n, max_size=n)),
        draw(st.lists(_IDS, min_size=n, max_size=n)),
        np.array(
            draw(st.lists(st.tuples(_FLOATS, _FLOATS), min_size=n, max_size=n)),
            dtype=np.float64,
        ),
        draw(st.lists(_FLOATS, min_size=n, max_size=n)),
    )


@st.composite
def _event_ops(draw) -> tuple[list, list]:
    """A family's key table (split into 0, 4 or 9 sub-shards) and rows
    whose key indices fall inside it."""
    base = draw(st.integers(0, 99))
    n_sub = draw(st.sampled_from([0, 4, 9]))
    keys = [f"s{base}", *(f"s{base}/{j}" for j in range(n_sub))]
    row = st.tuples(
        st.integers(0, len(keys) - 1), st.integers(0, 1), _I64, _FLOATS, _FLOATS
    )
    return keys, draw(st.lists(row, max_size=24))


@st.composite
def _results(draw) -> WindowResult:
    n = draw(st.integers(0, 24))
    is_task = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return WindowResult(
        draw(_SEQS),
        is_task,
        draw(st.lists(_IDS, min_size=n, max_size=n)),
        [draw(st.one_of(st.none(), _IDS)) for _ in range(sum(is_task))],
    )


def _packed_window(window: StreamWindow, tail: bytes = b"") -> bytes:
    rows = [
        _WINDOW_ROW.pack(int(task), ident, x, y, at)
        for task, ident, (x, y), at in zip(
            window.is_task, window.ids, window.xy.tolist(), window.times
        )
    ]
    return _prefixed(
        STREAM_BATCH_TAG,
        struct.pack(">QI", window.seq, len(rows))
        + b"".join(rows)
        + struct.pack(">I", len(tail))
        + tail,
    )


def _packed_result(result: WindowResult) -> bytes:
    workers = iter(result.workers)
    rows = []
    for task, ident in zip(result.is_task, result.ids):
        worker = next(workers) if task else None
        kind = 0 if not task else (2 if worker is None else 1)
        rows.append(_RESULT_ROW.pack(kind, ident, worker or 0))
    return _prefixed(
        STREAM_RESULT_TAG,
        struct.pack(">QI", result.seq, len(rows)) + b"".join(rows),
    )


def _bits(values) -> list:
    """Floats as their IEEE bit patterns: -0.0 and 0.0 stay apart."""
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


def _packed_events(seq: int, keys, rows, tail: bytes = b"") -> bytes:
    table = b"".join(bytes([len(key)]) + key.encode("ascii") for key in keys)
    return _prefixed(
        MESH_EVENTS_TAG,
        struct.pack(">QII", seq, len(rows), len(keys))
        + table
        + b"".join(_EVENT_ROW.pack(*row) for row in rows)
        + struct.pack(">I", len(tail))
        + tail,
    )


def _packed_events_reply(seq: int, workers, tail: bytes = b"") -> bytes:
    return _prefixed(
        MESH_EVENTS_REPLY_TAG,
        struct.pack(">QI", seq, len(workers))
        + b"".join(_EVENTS_REPLY_ROW.pack(w is not None, w or 0) for w in workers)
        + struct.pack(">I", len(tail))
        + tail,
    )


class TestColumnarBytes:
    @settings(max_examples=150, deadline=None)
    @given(_windows(), _TRACES)
    def test_windows_write_the_per_row_bytes(self, window, trace):
        payload = encode_stream_batch(window, trace)
        tail = json.dumps({"trace": trace}, separators=(",", ":")) if trace else ""
        assert payload == _packed_window(window, tail.encode("utf-8"))
        decoded, read_trace = decode_stream_batch(payload)
        assert read_trace == trace
        assert decoded == window
        assert decoded.seq == window.seq
        assert decoded.ids == window.ids
        assert all(type(i) is int for i in decoded.ids)
        assert decoded.is_task == window.is_task
        assert _bits(decoded.xy) == _bits(window.xy)
        assert _bits(decoded.times) == _bits(window.times)

    @settings(max_examples=150, deadline=None)
    @given(_results())
    def test_results_write_the_per_row_bytes(self, result):
        payload = encode_stream_result(result)
        assert payload == _packed_result(result)
        decoded = decode_stream_result(payload)
        assert decoded == result
        assert decoded.workers == list(result.workers)

    @settings(max_examples=150, deadline=None)
    @given(_event_ops(), _SEQS)
    def test_events_write_the_per_row_bytes(self, op, seq):
        keys, rows = op
        packed = np.array(rows, dtype=EVENT_ROW_DTYPE)
        payload = encode_bin1(op_doc("events", seq, {"keys": keys, "rows": packed}))
        assert payload == _packed_events(seq, keys, rows)
        doc = decode_bin1(payload)
        assert (doc["kind"], doc["seq"]) == ("events", seq)
        assert doc["body"]["keys"] == keys
        assert doc["body"]["rows"].dtype == EVENT_ROW_DTYPE
        assert doc["body"]["rows"].tobytes() == packed.tobytes()
        # the worker's columns read exactly as a JSON decode of them would
        table, ids, xy, is_task = event_columns(doc["body"])
        assert table == [keys[row[0]] for row in rows]
        assert ids == [row[2] for row in rows]
        assert all(type(i) is int for i in ids)
        assert is_task == [row[1] == 1 for row in rows]
        assert all(type(t) is bool for t in is_task)
        assert all(type(p) is list and list(map(type, p)) == [float, float] for p in xy)
        assert _bits([v for p in xy for v in p]) == _bits(
            [v for row in rows for v in row[3:]]
        )

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.one_of(st.none(), _I64), max_size=24), _SEQS)
    def test_events_replies_write_the_per_row_bytes(self, workers, seq):
        payload = encode_bin1(events_reply_doc(seq, {"workers": workers}))
        assert payload == _packed_events_reply(seq, workers)
        doc = decode_bin1(payload)
        assert (doc["kind"], doc["seq"]) == ("events_reply", seq)
        assert doc["body"] == {"workers": workers}

    def test_extra_body_fields_ride_the_json_tail(self):
        trace = {"trace_id": "a" * 32, "span_id": "b" * 16}
        op = {**_events_op(), "trace": trace}
        payload = encode_bin1(op_doc("events", 9, op))
        rows = op["rows"].tolist()
        tail = b'{"trace":{"trace_id":"' + b"a" * 32 + b'","span_id":"' + b"b" * 16 + b'"}}'
        assert payload == _packed_events(9, op["keys"], rows, tail)
        assert decode_bin1(payload)["body"]["trace"] == trace
        spans = [{"type": "span", "name": "worker.execute"}]
        reply = encode_bin1(events_reply_doc(9, {"workers": [4], "spans": spans}))
        tail = b'{"spans":[{"type":"span","name":"worker.execute"}]}'
        assert reply == _packed_events_reply(9, [4], tail)
        assert decode_bin1(reply)["body"] == {"workers": [4], "spans": spans}

    @pytest.mark.parametrize(
        "body",
        [
            {"keys": ["s0"], "rows": [(0, 0, 1, 0.0, 0.0)]},  # not an array
            {"keys": ["s0"], "rows": np.zeros(1, dtype=[("id", "<i8")])},
            {"keys": ["s\u00e9"], "rows": np.zeros(1, dtype=EVENT_ROW_DTYPE)},
            {"keys": ["s" * 256], "rows": np.zeros(1, dtype=EVENT_ROW_DTYPE)},
            {"rows": np.zeros(1, dtype=EVENT_ROW_DTYPE)},  # no key table
        ],
        ids=["list-rows", "foreign-dtype", "non-ascii-key", "long-key", "no-keys"],
    )
    def test_events_that_do_not_fit_the_rows_fail_structured(self, body):
        with pytest.raises(ValidationFailed):
            encode_bin1(op_doc("events", 1, body))

    def test_events_replies_that_do_not_fit_the_rows_fail_structured(self):
        for workers in ([2**63], [1.5j], "7"):
            with pytest.raises(ValidationFailed):
                encode_bin1(events_reply_doc(1, {"workers": workers}))

    def test_all_three_result_kinds_appear(self):
        payload = encode_stream_result(_window_result())
        kinds = [payload[3 + 12 + 17 * i] for i in range(3)]
        assert kinds == [0, 1, 2]


# --------------------------------------------------------------------- #
# hostile bytes                                                          #
# --------------------------------------------------------------------- #


def _structured(decode, payload) -> None:
    """Decoding must answer or fail inside the taxonomy — never leak."""
    try:
        decode(payload)
    except ApiError as exc:
        assert exc.code in STABLE_CODES
    # anything else (struct.error, IndexError, hang) propagates and fails


def _stream_payloads():
    """Each row layout's payload (a window untraced and traced), paired
    with its one decoder."""
    trace = {"trace_id": "ab" * 16, "span_id": "cd" * 8}
    return (
        (encode_stream_batch(_window()), decode_stream_batch),
        (encode_stream_batch(_window(), trace), decode_stream_batch),
        (encode_stream_result(_window_result()), decode_stream_result),
    )


class TestStreamFuzz:
    def test_truncation_at_every_boundary(self):
        for payload, decode in _stream_payloads():
            for cut in range(len(payload)):
                with pytest.raises(ApiError) as info:
                    decode(payload[:cut])
                assert info.value.code in STABLE_CODES

    def test_trailing_bytes_are_rejected(self):
        payload = encode_stream_batch(_window())
        with pytest.raises(ValidationFailed):
            decode_stream_batch(payload + b"\x00")

    def test_single_byte_mutations_never_escape_the_taxonomy(self):
        rng = np.random.default_rng(5)
        for payload, decode in _stream_payloads():
            base = bytearray(payload)
            for _ in range(400):
                mutated = bytearray(base)
                pos = int(rng.integers(len(mutated)))
                mutated[pos] = int(rng.integers(256))
                _structured(decode, bytes(mutated))

    def test_foreign_layout_version_is_unsupported(self):
        payload = bytearray(encode_stream_batch(_window()))
        payload[1] = BIN1_WIRE_VERSION + 1
        with pytest.raises(UnsupportedVersion):
            decode_stream_batch(bytes(payload))

    def test_unknown_tag_is_invalid_everywhere(self):
        for payload, decode in _stream_payloads():
            payload = bytearray(payload)
            payload[2] = 0x7F
            with pytest.raises(ValidationFailed):
                decode(bytes(payload))

    def test_bad_stream_row_kind_is_invalid(self):
        row = _WINDOW_ROW.pack(2, 1, 0.0, 0.0, 0.0)
        payload = _prefixed(
            STREAM_BATCH_TAG, struct.pack(">QI", 0, 1) + row + struct.pack(">I", 0)
        )
        with pytest.raises(ValidationFailed):
            decode_stream_batch(payload)

    @pytest.mark.parametrize("kind", [0, 2])
    def test_nonzero_worker_pad_is_invalid(self, kind):
        # kinds 0 (registered) and 2 (unassigned) carry no worker — a
        # nonzero field there is damage, not data
        row = _RESULT_ROW.pack(kind, 1, 5)
        payload = _prefixed(STREAM_RESULT_TAG, struct.pack(">QI", 0, 1) + row)
        with pytest.raises(ValidationFailed):
            decode_stream_result(payload)

    def test_overstated_row_count_is_a_structured_truncation(self):
        payload = bytearray(encode_stream_batch(_window()))
        struct.pack_into(">I", payload, 3 + 8, 1000)
        with pytest.raises(ValidationFailed):
            decode_stream_batch(bytes(payload))


# --------------------------------------------------------------------- #
# outbound framing symmetry (the bugfix regression)                      #
# --------------------------------------------------------------------- #


class TestOversizeResponse:
    def test_oversize_response_errors_and_keeps_the_session(self):
        """A response too big for max_frame_bytes answers a structured
        error — this request's failure, not the connection's."""
        spec = _spec()
        config = GatewayConfig(
            spec=spec, backend="sharded", max_frame_bytes=512
        )
        with serve_gateway(config) as server:
            backend = RemoteBackend(spec, address=server.address)
            backend.open()
            try:
                assert backend.handle(
                    StreamWindow.of(0, [RegisterWorker(0, (1.0, 1.0), 0.0)])
                ) == WindowResult(0, [False], [0], [])
                # the (2,2) report is far past 512 bytes
                with pytest.raises(ApiError) as info:
                    backend.handle(GetReport())
                assert info.value.code in STABLE_CODES
                # same session, next request: alive and answering
                assert backend.handle(
                    StreamWindow.of(1, [RegisterWorker(1, (2.0, 2.0), 0.1)])
                ) == WindowResult(1, [False], [1], [])
            finally:
                backend.close()

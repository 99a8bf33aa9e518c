"""Property/fuzz tests for the framed wire layer.

Two invariants, checked over hundreds of randomized cases:

1. **Lossless transport** — any valid API message with a document form
   (a flush or report request, their answers, an error) survives
   ``to_wire`` → frame bytes (bin1, and the handshake's JSON) →
   arbitrary chunking → ``FrameDecoder`` → ``from_wire`` bit-exactly
   (dataclass equality, which for frozen messages is field-exact), and
   any stream window or window result — registers and submits, sync or
   streamed, and their answers — survives its rows;
2. **Total error mapping** — whatever damage the bytes or documents
   carry (junk, truncation, oversize, mutated envelopes, foreign
   versions), the wire layer answers with a structured
   :class:`~repro.api.errors.ApiError` bearing a stable code — never a
   ``KeyError``/``UnicodeDecodeError``/``struct.error`` leaking through
   a server loop.
"""

import struct

import numpy as np
import pytest

from repro.api.errors import ApiError, map_exception
from repro.api.messages import (
    ErrorInfo,
    Flush,
    Flushed,
    GetReport,
    RegisterWorker,
    ReportResult,
    StreamWindow,
    SubmitTask,
    WindowResult,
    from_wire,
    to_wire,
)
from repro.cluster.dispatch import EVENT_ROW_DTYPE
from repro.gateway import FrameDecoder, encode_frame, handshake_frame
from repro.gateway.codec import (
    decode_bin1,
    decode_stream_batch,
    decode_stream_result,
    encode_bin1,
    encode_stream_batch,
    encode_stream_result,
)
from repro.gateway.protocol import HEADER
from repro.mesh.protocol import event_columns, events_reply_doc, op_doc, parse_op
from repro.service.metrics import ServiceReport, ShardSnapshot

STABLE_CODES = {
    "invalid-request",
    "unsupported-version",
    "rate-limited",
    "rejected",
    "unavailable",
    "internal",
}


def random_point(rng) -> tuple[float, float]:
    return (float(rng.uniform(-500, 500)), float(rng.uniform(-500, 500)))


def random_verb(rng):
    """A random register or submit: a request that travels as a row."""
    if rng.integers(2):
        return RegisterWorker(
            worker_id=int(rng.integers(1_000_000)),
            location=random_point(rng),
            time=float(rng.uniform(0, 1e4)),
        )
    return SubmitTask(
        task_id=int(rng.integers(1_000_000)),
        location=random_point(rng),
        time=float(rng.uniform(0, 1e4)),
    )


def random_barrier(rng):
    if rng.integers(2):
        return Flush()
    return GetReport(wall_seconds=float(rng.uniform(0, 1e3)))


def random_snapshot(rng, i: int) -> ShardSnapshot:
    return ShardSnapshot(
        shard_id=f"s{i}" if rng.integers(2) else i,
        epsilon=float(rng.uniform(0.1, 2.0)),
        workers_registered=int(rng.integers(1000)),
        cohorts_flushed=int(rng.integers(100)),
        tasks_assigned=int(rng.integers(1000)),
        tasks_unassigned=int(rng.integers(100)),
        latency_p50_ms=float(rng.uniform(0, 50)),
        latency_p95_ms=float(rng.uniform(0, 200)),
        mean_reported_distance=float(rng.uniform(0, 300)),
        budget_capacity=float(rng.uniform(1, 4)),
        budget_min_remaining=float(rng.uniform(0, 1)),
        budget_mean_remaining=float(rng.uniform(0, 2)),
    )


def random_response(rng):
    """A random answer with a document form (a window's answer, the
    register and submit answers included, travels as rows)."""
    roll = rng.integers(3)
    if roll == 0:
        return Flushed()
    if roll == 1:
        return ErrorInfo(
            code=str(rng.choice(sorted(STABLE_CODES))),
            message="m" * int(rng.integers(1, 40)),
            retryable=bool(rng.integers(2)),
            detail="d" * int(rng.integers(0, 20)),
        )
    return ReportResult(
        report=ServiceReport(
            shards=tuple(
                random_snapshot(rng, i) for i in range(int(rng.integers(1, 5)))
            ),
            wall_seconds=float(rng.uniform(0, 100)),
            sim_duration=float(rng.uniform(0, 1e4)),
            latency_p50_ms=float(rng.uniform(0, 50)),
            latency_p95_ms=float(rng.uniform(0, 200)),
            mean_reported_distance=float(rng.uniform(0, 300)),
            mean_true_distance=float(rng.uniform(0, 300)),
        )
    )


def random_window(rng) -> StreamWindow:
    run = [random_verb(rng) for _ in range(int(rng.integers(0, 6)))]
    return StreamWindow.of(int(rng.integers(100_000)), run)


def random_window_result(rng) -> WindowResult:
    is_task = [bool(t) for t in rng.integers(0, 2, size=int(rng.integers(0, 6)))]
    return WindowResult(
        seq=int(rng.integers(100_000)),
        is_task=is_task,
        ids=[int(i) for i in rng.integers(1_000_000, size=len(is_task))],
        workers=[
            None if rng.integers(3) == 0 else int(rng.integers(1_000_000))
            for _ in range(sum(is_task))
        ],
    )


def random_message(rng):
    """A random message with a document form (a window, a register or
    submit and their answers have none: they travel as rows)."""
    if rng.integers(2):
        return random_barrier(rng)
    return random_response(rng)


def random_trace(rng) -> dict | None:
    if rng.integers(2):
        return None
    return {
        "trace_id": f"{int(rng.integers(2**62)):032x}",
        "span_id": f"{int(rng.integers(2**62)):016x}",
    }


def chunked(blob: bytes, rng) -> list[bytes]:
    """Cut a byte string at random points, single bytes included."""
    cuts = sorted(
        int(c) for c in rng.integers(0, len(blob) + 1, size=int(rng.integers(0, 8)))
    )
    bounds = [0] + cuts + [len(blob)]
    return [blob[a:b] for a, b in zip(bounds, bounds[1:])]


class TestLosslessRoundTrip:
    def test_random_messages_survive_the_full_wire_path(self):
        rng = np.random.default_rng(1234)
        for _ in range(300):
            message = random_message(rng)
            for frame in (encode_frame, handshake_frame):
                blob = frame(to_wire(message))
                decoder = FrameDecoder()
                frames = []
                for piece in chunked(blob, rng):
                    frames += decoder.feed(piece)
                decoder.check_eof()
                assert len(frames) == 1
                assert from_wire(frames[0]) == message

    def test_many_messages_share_one_stream(self):
        rng = np.random.default_rng(99)
        messages = [random_message(rng) for _ in range(40)]
        blob = b"".join(encode_frame(to_wire(m)) for m in messages)
        decoder = FrameDecoder()
        frames = []
        for piece in chunked(blob, rng):
            frames += decoder.feed(piece)
        decoder.check_eof()
        assert [from_wire(f) for f in frames] == messages

    def test_random_windows_survive_their_rows(self):
        rng = np.random.default_rng(4321)
        for _ in range(300):
            window, trace = random_window(rng), random_trace(rng)
            assert decode_stream_batch(encode_stream_batch(window, trace)) == (
                window,
                trace,
            )
            result = random_window_result(rng)
            assert decode_stream_result(encode_stream_result(result)) == result

    def test_wire_form_is_json_pure(self):
        """The wire dict of any message survives a JSON round trip
        unchanged — no tuples, sets, numpy scalars or NaNs hiding in
        bodies destined for the socket."""
        import json

        rng = np.random.default_rng(7)
        for _ in range(100):
            doc = to_wire(random_message(rng))
            assert json.loads(json.dumps(doc)) == json.loads(
                json.dumps(json.loads(json.dumps(doc)))
            )


class TestDamageMapsToStableCodes:
    def test_truncation_at_every_boundary(self):
        rng = np.random.default_rng(5)
        blob = encode_frame(to_wire(random_message(rng)))
        for cut in range(len(blob)):
            decoder = FrameDecoder()
            frames = decoder.feed(blob[:cut])
            assert frames == []  # nothing closed
            if cut == 0:
                decoder.check_eof()  # clean EOF at a boundary
            else:
                with pytest.raises(ApiError) as err:
                    decoder.check_eof()
                assert err.value.code == "invalid-request"

    def test_random_junk_never_escapes_the_taxonomy(self):
        rng = np.random.default_rng(31337)
        survived = 0
        for _ in range(200):
            junk = rng.integers(0, 256, size=int(rng.integers(1, 200))).astype(
                np.uint8
            ).tobytes()
            decoder = FrameDecoder(max_frame_bytes=1 << 16)
            try:
                for piece in chunked(junk, rng):
                    decoder.feed(piece)
                decoder.check_eof()
                survived += 1  # astronomically unlikely, but legal
            except ApiError as exc:
                assert exc.code in STABLE_CODES
        assert survived < 200  # the damage was actually exercised

    def test_mutated_documents_fail_structurally(self):
        """Random single-field mutations of valid wire docs must raise
        ApiError (stable code), never a raw KeyError/TypeError."""
        rng = np.random.default_rng(42)
        poisons = [None, 99, -1, "xyzzy", [], {}, "repro.api2", 1.5, True]
        fields = ["schema", "version", "kind", "body"]
        for _ in range(300):
            doc = to_wire(random_message(rng))
            field = fields[int(rng.integers(len(fields)))]
            poison = poisons[int(rng.integers(len(poisons)))]
            mutated = dict(doc)
            if rng.integers(3) == 0:
                mutated.pop(field, None)
            else:
                mutated[field] = poison
            try:
                reparsed = from_wire(mutated)
            except ApiError as exc:
                assert exc.code in {"invalid-request", "unsupported-version"}
            else:
                # the mutation happened to keep the doc valid (e.g. body
                # replaced by {} on a Flush): it must decode to a message
                assert type(reparsed).kind == mutated["kind"]

    def test_body_field_damage_fails_structurally(self):
        rng = np.random.default_rng(2718)
        for _ in range(200):
            message = random_message(rng)
            doc = to_wire(message)
            if not doc["body"]:
                continue
            keys = sorted(doc["body"])
            key = keys[int(rng.integers(len(keys)))]
            mutated = dict(doc, body=dict(doc["body"]))
            if rng.integers(2) == 0:
                del mutated["body"][key]
            else:
                mutated["body"][key] = object  # not even JSON
            try:
                from_wire(mutated)
            except ApiError as exc:
                assert exc.code == "invalid-request"
            except Exception as exc:  # pragma: no cover - the bug this hunts
                pytest.fail(f"raw {type(exc).__name__} escaped from_wire: {exc}")

    def test_future_version_is_unsupported_not_keyerror(self):
        rng = np.random.default_rng(17)
        for version in (2, 99, "2", None, -1):
            doc = to_wire(random_message(rng))
            doc["version"] = version
            with pytest.raises(ApiError) as err:
                from_wire(doc)
            assert err.value.code == "unsupported-version"

    def test_header_is_big_endian_u32(self):
        # the frame layout is wire-frozen: 4 bytes, network byte order
        assert HEADER.size == 4
        assert HEADER.pack(1) == b"\x00\x00\x00\x01"


class TestHelloFuzz:
    """The handshake's own envelope: junk hellos answer stable codes.

    The v1 top level is frozen at schema/version/kind/body — an unknown
    top-level key is junk (not forward compatibility; the *body* and its
    feature list are the extension points) and must map to
    ``invalid-request``, never parse, never KeyError.
    """

    def test_unknown_top_level_keys_are_invalid_request(self):
        from repro.gateway.protocol import hello_doc, parse_hello

        for key in ("surprise", "features", "seq", "x", "_pad"):
            doc = hello_doc()
            doc[key] = 1
            with pytest.raises(ApiError) as err:
                parse_hello(doc)
            assert err.value.code == "invalid-request"

    def test_mutated_hellos_never_escape_the_taxonomy(self):
        from repro.gateway.protocol import hello_doc, parse_hello

        rng = np.random.default_rng(404)
        poisons = [None, 99, -1, "xyzzy", [], {}, 1.5, True, b"bytes"]
        fields = ["schema", "version", "kind", "body"]
        for _ in range(300):
            doc = hello_doc(
                api_versions=[int(v) for v in rng.integers(1, 4, size=2)],
                features=["role:mesh-worker"] if rng.integers(2) else [],
            )
            roll = rng.integers(3)
            if roll == 0:
                field = fields[int(rng.integers(len(fields)))]
                if rng.integers(3) == 0:
                    doc.pop(field, None)
                else:
                    doc[field] = poisons[int(rng.integers(len(poisons)))]
            elif roll == 1:
                doc[f"junk{int(rng.integers(10))}"] = "x"
            else:
                body = dict(doc["body"])
                key = sorted(body)[int(rng.integers(len(body)))]
                body[key] = poisons[int(rng.integers(len(poisons)))]
                doc["body"] = body
            try:
                parse_hello(doc)
            except ApiError as exc:
                assert exc.code in STABLE_CODES
            except Exception as exc:  # pragma: no cover - the bug this hunts
                pytest.fail(
                    f"raw {type(exc).__name__} escaped parse_hello: {exc}"
                )

    def test_role_and_family_advertisements_are_validated(self):
        from repro.api.errors import ApiError
        from repro.gateway.protocol import advertised_families, peer_role

        assert peer_role(["role:mesh-worker"]) == "mesh-worker"
        assert peer_role(["compression"]) is None
        with pytest.raises(ApiError):
            peer_role(["role:a", "role:b"])  # contradiction, not a choice
        assert advertised_families(["family:3", "family:1"]) == (1, 3)
        with pytest.raises(ApiError):
            advertised_families(["family:three"])


class TestTraceFuzz:
    """The ``trace`` feature bit and the per-request trace envelope.

    Same discipline as the hello fuzz: tracing is an *optional* overlay
    on the frozen wire form, so (a) the feature is only granted when
    both ends opt in, (b) a ``trace`` key sent to a pre-feature/untraced
    session is ignored like any unknown top-level key, and (c) on a
    traced session a malformed context degrades that one request to
    untraced — the response is normal and the session survives.
    """

    @staticmethod
    def _spec():
        from repro.api import ServiceSpec
        from repro.geometry import Box

        return ServiceSpec(
            region=Box.square(100.0), shards=(1, 2), grid_nx=5, batch_size=4
        )

    @staticmethod
    def _handshake(address, features=()):
        import socket as socketlib

        from repro.gateway import decode_payload
        from repro.gateway.protocol import hello_doc, parse_welcome

        sock = socketlib.create_connection(address, timeout=10.0)
        sock.settimeout(10.0)
        sock.sendall(handshake_frame(hello_doc(features=features)))

        def recv() -> dict:
            buf = bytearray()
            need = HEADER.size
            while len(buf) < need:
                chunk = sock.recv(need - len(buf))
                assert chunk, "server closed mid-frame"
                buf += chunk
            (length,) = HEADER.unpack(bytes(buf))
            buf = bytearray()
            while len(buf) < length:
                chunk = sock.recv(length - len(buf))
                assert chunk, "server closed mid-frame"
                buf += chunk
            return decode_payload(bytes(buf))

        _, _, _, granted = parse_welcome(recv())
        return sock, recv, granted

    def test_trace_offer_is_granted_only_by_a_tracing_gateway(self):
        from repro.gateway import GatewayConfig, serve_gateway
        from repro.gateway.protocol import TRACE_FEATURE

        spec = self._spec()
        for trace, expect in ((False, False), (True, True)):
            with serve_gateway(GatewayConfig(spec=spec, trace=trace)) as gw:
                sock, recv, granted = self._handshake(
                    gw.address, features=(TRACE_FEATURE,)
                )
                assert (TRACE_FEATURE in granted) is expect
                # a trace key on the request is harmless either way:
                # untraced sessions ignore unknown top-level keys
                doc = to_wire(Flush())
                doc["trace"] = {"trace_id": "aa", "span_id": "bb"}
                sock.sendall(encode_frame(doc))
                reply = from_wire(recv())
                assert isinstance(reply, Flushed)
                sock.close()

    def test_mutated_trace_contexts_never_error_a_traced_session(self):
        from repro.gateway import GatewayConfig, serve_gateway
        from repro.gateway.protocol import TRACE_FEATURE

        rng = np.random.default_rng(777)
        # every poison must itself be JSON-encodable: the fuzz rides a
        # real frame, and bytes can't cross a JSON wire in the first place
        atoms = [None, -1, 0.5, True, "aa", "ZZ!", "a" * 200, [], {}]
        with serve_gateway(
            GatewayConfig(spec=self._spec(), trace=True)
        ) as gw:
            sock, recv, granted = self._handshake(
                gw.address, features=(TRACE_FEATURE,)
            )
            assert TRACE_FEATURE in granted
            for i in range(60):
                doc = to_wire(Flush())
                roll = rng.integers(3)
                if roll == 0:
                    doc["trace"] = atoms[int(rng.integers(len(atoms)))]
                else:
                    trace = {}
                    for key in ("trace_id", "span_id", "parent_id"):
                        if rng.integers(2):
                            trace[key] = atoms[int(rng.integers(len(atoms)))]
                    doc["trace"] = trace
                sock.sendall(encode_frame(doc))
                reply = from_wire(recv())
                # malformed contexts degrade to untraced; the request
                # itself is valid and must answer normally
                assert isinstance(reply, Flushed), doc["trace"]
            # the session still traces properly-formed contexts
            before = len(gw.tracer.spans)
            doc = to_wire(GetReport())
            doc["trace"] = {"trace_id": "feed" * 4, "span_id": "beef" * 4}
            sock.sendall(encode_frame(doc))
            assert isinstance(from_wire(recv()), ReportResult)
            new = list(gw.tracer.spans)[before:]
            assert any(
                rec["name"] == "gateway.dispatch"
                and rec["trace"] == "feed" * 4
                and rec["parent"] == "beef" * 4
                for rec in new
            )
            sock.close()


# --------------------------------------------------------------------- #
# the mesh events rows                                                   #
# --------------------------------------------------------------------- #

#: Byte offsets in an events payload: the bin1 prefix, then the seq,
#: row-count and key-count fields, then the key table.
_ROWS_AT = 3 + 8
_KEYS_AT = 3 + 12
_TABLE_AT = 3 + 16


def _events_payload(traced: bool = True) -> bytes:
    """A split family's ``events`` op, three rows over a three-key
    table, with a trace context in its tail."""
    rows = np.array(
        [(0, 0, 7, 1.5, -2.25), (2, 1, 3, 0.0, 99.5), (1, 0, 8, -4.0, 4.0)],
        dtype=EVENT_ROW_DTYPE,
    )
    body = {"keys": ["s3", "s3/0", "s3/1"], "rows": rows}
    if traced:
        body["trace"] = {"trace_id": "ab" * 16, "span_id": "cd" * 8}
    return encode_bin1(op_doc("events", 41, body))


def _events_reply_payload() -> bytes:
    spans = [{"type": "span", "name": "worker.execute"}]
    return encode_bin1(events_reply_doc(41, {"workers": [7, None], "spans": spans}))


def _row_at(payload: bytes, row: int) -> int:
    """Offset of an events payload's row ``row``."""
    (n_keys,) = struct.unpack_from(">I", payload, _KEYS_AT)
    at = _TABLE_AT
    for _ in range(n_keys):
        at += 1 + payload[at]
    return at + row * EVENT_ROW_DTYPE.itemsize


def _serve(payload: bytes) -> dict:
    """What a mesh worker does with a payload: decode the frame (damage
    there is ``invalid-request`` and poisons the connection), then check
    an ``events`` op's rows where they are applied (damage there is the
    op's ``rejected`` answer). Either way the failure is structured."""
    doc = decode_bin1(payload)
    if doc.get("kind") == "events":
        try:
            event_columns(parse_op(doc)[2])
        except ValueError as exc:
            raise map_exception(exc) from exc
    return doc


class TestMeshEventsFuzz:
    """The events op and its reply: every kind of damage fails inside the
    taxonomy, never as a ``struct.error`` or ``IndexError``."""

    def test_clean_payloads_serve(self):
        assert _serve(_events_payload())["body"]["trace"]["span_id"] == "cd" * 8
        assert _serve(_events_reply_payload())["body"]["workers"] == [7, None]

    @pytest.mark.parametrize("make", [_events_payload, _events_reply_payload])
    def test_truncation_at_every_boundary(self, make):
        payload = make()
        for cut in range(len(payload)):
            with pytest.raises(ApiError) as err:
                _serve(payload[:cut])
            assert err.value.code in STABLE_CODES

    @pytest.mark.parametrize("make", [_events_payload, _events_reply_payload])
    def test_trailing_bytes_are_rejected(self, make):
        with pytest.raises(ApiError) as err:
            _serve(make() + b"\x00")
        assert err.value.code == "invalid-request"

    @pytest.mark.parametrize("make", [_events_payload, _events_reply_payload])
    def test_lying_row_counts(self, make):
        base = make()
        (count,) = struct.unpack_from(">I", base, _ROWS_AT)
        for lie in (0, count - 1, count + 1, 1000, 2**32 - 1):
            payload = bytearray(base)
            struct.pack_into(">I", payload, _ROWS_AT, lie)
            with pytest.raises(ApiError) as err:
                _serve(bytes(payload))
            assert err.value.code == "invalid-request", lie

    @pytest.mark.parametrize("count", [0, 1, 2, 4, 100, 2**32 - 1])
    def test_lying_key_counts(self, count):
        payload = bytearray(_events_payload())
        struct.pack_into(">I", payload, _KEYS_AT, count)
        with pytest.raises(ApiError) as err:
            _serve(bytes(payload))
        assert err.value.code in STABLE_CODES

    def test_non_ascii_key_names_are_invalid(self):
        payload = bytearray(_events_payload())
        payload[_TABLE_AT + 1] = 0xE9
        with pytest.raises(ApiError) as err:
            _serve(bytes(payload))
        assert err.value.code == "invalid-request"

    @pytest.mark.parametrize(
        "field, value, message",
        [("key", 3, "key table"), ("key", 2**32 - 1, "key table"), ("kind", 2, "0 or 1")],
        ids=["index-past-table", "index-max", "kind-2"],
    )
    def test_damaged_rows_decode_and_are_rejected_where_applied(
        self, field, value, message
    ):
        payload = bytearray(_events_payload())
        at = _row_at(bytes(payload), 1)
        if field == "key":
            struct.pack_into(">I", payload, at, value)
        else:
            payload[at + 4] = value
        decode_bin1(bytes(payload))  # the frame itself is sound
        with pytest.raises(ApiError) as err:
            _serve(bytes(payload))
        assert err.value.code == "rejected"
        assert message in err.value.message

    @pytest.mark.parametrize(
        "tail",
        [b"{", b"[1, 2]", b"\xff\xfe", b'"trace"', b"null"],
        ids=["cut-json", "array", "not-utf8", "string", "null"],
    )
    def test_damaged_tails_are_invalid(self, tail):
        payload = _events_payload(traced=False)
        damaged = payload[:-4] + struct.pack(">I", len(tail)) + tail
        with pytest.raises(ApiError) as err:
            _serve(damaged)
        assert err.value.code == "invalid-request"

    @pytest.mark.parametrize("size", [1, 10**6, 2**32 - 1])
    def test_lying_tail_lengths_are_invalid(self, size):
        payload = bytearray(_events_payload())
        at = _row_at(bytes(payload), 3)
        struct.pack_into(">I", payload, at, size)
        with pytest.raises(ApiError) as err:
            _serve(bytes(payload))
        assert err.value.code == "invalid-request"

    @pytest.mark.parametrize(
        "assigned, worker", [(2, 7), (0, 7), (255, 0)],
        ids=["flag-2", "unassigned-with-worker", "flag-255"],
    )
    def test_non_canonical_reply_rows_are_invalid(self, assigned, worker):
        payload = bytearray(_events_reply_payload())
        struct.pack_into(">Bq", payload, 3 + 12, assigned, worker)
        with pytest.raises(ApiError) as err:
            _serve(bytes(payload))
        assert err.value.code == "invalid-request"

    @pytest.mark.parametrize("make", [_events_payload, _events_reply_payload])
    def test_single_byte_mutations_never_escape_the_taxonomy(self, make):
        rng = np.random.default_rng(26)
        base = make()
        for _ in range(600):
            mutated = bytearray(base)
            pos = int(rng.integers(len(mutated)))
            mutated[pos] = int(rng.integers(256))
            try:
                _serve(bytes(mutated))
            except ApiError as exc:
                assert exc.code in STABLE_CODES


# --------------------------------------------------------------------- #
# the stream window rows                                                 #
# --------------------------------------------------------------------- #

#: Byte offset of a stream payload's row count: the bin1 prefix, then
#: the head's u64 seq.
_STREAM_ROWS_AT = 3 + 8


def _window_payload(traced: bool = True) -> bytes:
    """A three-row window, with a trace context in its tail."""
    window = StreamWindow.of(
        40,
        [
            RegisterWorker(7, (1.5, -2.25), 0.5),
            SubmitTask(3, (0.0, 99.5), 1.0),
            RegisterWorker(8, (-4.0, 4.0), 1.5),
        ],
    )
    trace = {"trace_id": "ab" * 16, "span_id": "cd" * 8} if traced else None
    return encode_stream_batch(window, trace)


def _result_payload() -> bytes:
    return encode_stream_result(
        WindowResult(40, [False, True, True], [7, 3, 4], [7, None])
    )


def _tail_at(payload: bytes) -> int:
    """Offset of a window payload's u32 tail length (33 B per row)."""
    (count,) = struct.unpack_from(">I", payload, _STREAM_ROWS_AT)
    return _STREAM_ROWS_AT + 4 + 33 * count


class TestStreamRowsFuzz:
    """A stream window's head, rows and JSON tail, and its answer's head
    and rows: every kind of damage is ``invalid-request``."""

    def test_clean_payloads_decode(self):
        window, trace = decode_stream_batch(_window_payload())
        assert len(window) == 3 and trace["span_id"] == "cd" * 8
        assert decode_stream_batch(_window_payload(traced=False))[1] is None
        assert decode_stream_result(_result_payload()).workers == [7, None]

    @pytest.mark.parametrize(
        "make, decode",
        [
            (_window_payload, decode_stream_batch),
            (_result_payload, decode_stream_result),
        ],
        ids=["window", "result"],
    )
    def test_lying_row_counts(self, make, decode):
        base = make()
        (count,) = struct.unpack_from(">I", base, _STREAM_ROWS_AT)
        for lie in (0, count - 1, count + 1, 1000, 2**32 - 1):
            payload = bytearray(base)
            struct.pack_into(">I", payload, _STREAM_ROWS_AT, lie)
            with pytest.raises(ApiError) as err:
                decode(bytes(payload))
            assert err.value.code == "invalid-request", lie

    def test_truncated_tails_are_invalid(self):
        payload = _window_payload()
        for cut in range(_tail_at(payload), len(payload)):
            with pytest.raises(ApiError) as err:
                decode_stream_batch(payload[:cut])
            assert err.value.code == "invalid-request"

    @pytest.mark.parametrize("size", [1, 10**6, 2**32 - 1])
    def test_lying_tail_lengths_are_invalid(self, size):
        payload = bytearray(_window_payload())
        struct.pack_into(">I", payload, _tail_at(bytes(payload)), size)
        with pytest.raises(ApiError) as err:
            decode_stream_batch(bytes(payload))
        assert err.value.code == "invalid-request"

    @pytest.mark.parametrize(
        "tail",
        [b"{", b"[1, 2]", b"\xff\xfe", b'"trace"', b"null"],
        ids=["cut-json", "array", "not-utf8", "string", "null"],
    )
    def test_damaged_tails_are_invalid(self, tail):
        payload = _window_payload(traced=False)
        damaged = payload[:-4] + struct.pack(">I", len(tail)) + tail
        with pytest.raises(ApiError) as err:
            decode_stream_batch(damaged)
        assert err.value.code == "invalid-request"

    def test_a_tail_without_a_trace_object_is_untraced(self):
        """A tail that parses but holds no trace object degrades the
        window to untraced, as a malformed document ``trace`` does."""
        payload = _window_payload(traced=False)
        for tail in (b"{}", b'{"trace":"x"}', b'{"other":1}'):
            intact = payload[:-4] + struct.pack(">I", len(tail)) + tail
            assert decode_stream_batch(intact)[1] is None

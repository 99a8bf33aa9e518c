"""Gateway hardening: protocol, lifecycle, faults, remote parity.

The seam this suite covers only exists once bytes cross a socket: frame
damage, version skew, half-dead clients, a SIGKILLed mesh worker
*behind* the gateway. Everything must surface as stable
:mod:`repro.api.errors` codes over the wire — never as a wedged server —
and assignments must stay bit-identical to the in-process backends.
"""

import gc
import socket
import threading
import time
import weakref

import pytest

from repro.api import (
    AdmissionRejected,
    AssignmentClient,
    BackendUnavailable,
    Flush,
    GetReport,
    MeshBackend,
    RegisterWorker,
    RequestRejected,
    ServiceSpec,
    ShardedBackend,
    StreamWindow,
    SubmitTask,
    TaskDecision,
    UnsupportedVersion,
    ValidationFailed,
    WindowResult,
    WorkerRegistered,
    to_wire,
)
from repro.api.conformance import build_conformance_stream, run_backend
from repro.api.errors import error_from_info
from repro.api.messages import ErrorInfo
from repro.api.middleware import ErrorMapper, RequestValidator
from repro.gateway import (
    GATEWAY_SCHEMA,
    FrameDecoder,
    GatewayConfig,
    RemoteBackend,
    encode_frame,
    handshake_frame,
    hello_doc,
    negotiate_version,
    parse_hello,
    parse_welcome,
    serve_gateway,
    welcome_doc,
)
from repro.gateway.codec import (
    decode_stream_batch,
    decode_stream_result,
    encode_stream_batch,
    encode_stream_result,
)
from repro.gateway.protocol import (
    GENERIC_TAG,
    HEADER,
    STREAM_BATCH_TAG,
    STREAM_RESULT_TAG,
    payload_frame,
)
from repro.geometry import Box
from repro.runtime import release_order
from repro.service import ShardMap

REGION = Box.square(200.0)


def small_spec(shards=(2, 2), seed=11) -> ServiceSpec:
    return ServiceSpec(
        region=REGION, shards=shards, grid_nx=6, batch_size=8, seed=seed
    )


# --------------------------------------------------------------------- #
# raw-socket helpers (deliberately not RemoteBackend: these tests need   #
# to misbehave in ways the well-mannered transport never would)          #
# --------------------------------------------------------------------- #


def send_hello(sock: socket.socket, doc: dict) -> None:
    sock.sendall(handshake_frame(doc))


def send_frame(sock: socket.socket, doc: dict) -> None:
    sock.sendall(encode_frame(doc))


def send_window(sock: socket.socket, seq: int, verbs) -> None:
    """Send register/submit verbs as one window's rows, as a client
    sends a stream window (or, with one verb, a sync call)."""
    sock.sendall(window_frame(seq, verbs))


def window_frame(seq: int, verbs) -> bytes:
    return payload_frame(encode_stream_batch(StreamWindow.of(seq, verbs)))


def recv_payload(sock: socket.socket) -> bytes:
    def read_exact(n: int) -> bytes:
        buf = bytearray()
        while len(buf) < n:
            chunk = sock.recv(n - len(buf))
            assert chunk, f"server closed mid-frame ({len(buf)}/{n})"
            buf += chunk
        return bytes(buf)

    (length,) = HEADER.unpack(read_exact(HEADER.size))
    return read_exact(length)


def recv_frame(sock: socket.socket) -> dict:
    from repro.gateway import decode_payload

    return decode_payload(recv_payload(sock))


def recv_result(sock: socket.socket) -> WindowResult:
    """The next frame, which must be a window's answer rows."""
    return decode_stream_result(recv_payload(sock))


def raw_handshake(address) -> socket.socket:
    sock = socket.create_connection(address, timeout=10.0)
    sock.settimeout(10.0)
    send_hello(sock, hello_doc())
    welcome = recv_frame(sock)
    assert welcome["kind"] == "welcome"
    return sock


def wait_until(predicate, timeout: float = 10.0, what: str = "condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError(f"timed out waiting for {what}")
        time.sleep(0.01)


# --------------------------------------------------------------------- #
# protocol (sans-IO)                                                     #
# --------------------------------------------------------------------- #


class TestFraming:
    def test_frame_round_trip_through_decoder(self):
        docs = [to_wire(GetReport(wall_seconds=float(i))) for i in range(3)]
        blob = b"".join(encode_frame(d) for d in docs)
        decoder = FrameDecoder()
        assert decoder.feed(blob) == docs
        assert decoder.buffered == 0
        decoder.check_eof()  # boundary: no complaint

    def test_byte_at_a_time_feeding(self):
        doc = to_wire(GetReport(wall_seconds=1.5))
        frames = []
        decoder = FrameDecoder()
        for byte in encode_frame(doc):
            frames += decoder.feed(bytes([byte]))
        assert frames == [doc]

    def test_zero_length_frame_is_invalid_request(self):
        with pytest.raises(ValidationFailed) as err:
            FrameDecoder().feed(HEADER.pack(0))
        assert err.value.code == "invalid-request"

    def test_oversized_frame_is_invalid_request(self):
        decoder = FrameDecoder(max_frame_bytes=64)
        with pytest.raises(ValidationFailed):
            decoder.feed(HEADER.pack(65))
        with pytest.raises(ValidationFailed):
            encode_frame({"pad": "x" * 128}, max_frame_bytes=64)

    def test_junk_payload_is_invalid_request(self):
        junk = b"\xff\xfe not json at all"
        with pytest.raises(ValidationFailed):
            FrameDecoder().feed(HEADER.pack(len(junk)) + junk)

    def test_non_object_payload_is_invalid_request(self):
        payload = b"[1,2,3]"
        with pytest.raises(ValidationFailed):
            FrameDecoder().feed(HEADER.pack(len(payload)) + payload)

    def test_truncated_frame_detected_at_eof(self):
        decoder = FrameDecoder()
        assert decoder.feed(encode_frame(hello_doc())[:-3]) == []
        assert decoder.buffered > 0
        with pytest.raises(ValidationFailed):
            decoder.check_eof()


class TestHandshake:
    def test_hello_welcome_round_trip(self):
        version, client, features = parse_hello(hello_doc(client="t"))
        assert version == 1 and client == "t" and features == ()
        assert parse_welcome(welcome_doc(version, "sharded", 3)) == (
            1,
            "sharded",
            3,
            (),
        )

    def test_feature_bits_round_trip_and_intersect(self):
        # the capability bit travels; names from the future pass through
        version, _, features = parse_hello(
            hello_doc(features=("pipeline", "from-the-future"))
        )
        assert features == ("pipeline", "from-the-future")
        _, _, _, granted = parse_welcome(
            welcome_doc(version, "sharded", 5, ("pipeline",))
        )
        assert granted == ("pipeline",)
        # a pre-feature peer (no field at all) means no features
        doc = hello_doc()
        del doc["body"]["features"]
        assert parse_hello(doc)[2] == ()

    def test_malformed_features_rejected(self):
        doc = hello_doc()
        doc["body"]["features"] = "pipeline"  # a string is not a list
        with pytest.raises(ValidationFailed):
            parse_hello(doc)
        doc["body"]["features"] = [1, 2]
        with pytest.raises(ValidationFailed):
            parse_hello(doc)

    def test_negotiation_picks_highest_common(self):
        assert negotiate_version([1, 7, 99]) == 1

    def test_no_common_version_is_unsupported(self):
        with pytest.raises(UnsupportedVersion) as err:
            negotiate_version([99])
        assert err.value.code == "unsupported-version"

    def test_string_offer_is_rejected_not_iterated(self):
        # "19" must not negotiate v1 from its digit characters
        for bad in ("19", b"\x01", {"1": 1}):
            with pytest.raises(ValidationFailed):
                negotiate_version(bad)

    def test_foreign_schema_is_unsupported(self):
        doc = hello_doc()
        doc["schema"] = "acme.rpc"
        with pytest.raises(UnsupportedVersion):
            parse_hello(doc)

    def test_malformed_hello_is_invalid_request(self):
        doc = hello_doc()
        del doc["body"]["api_versions"]
        with pytest.raises(ValidationFailed):
            parse_hello(doc)


class TestErrorInfoRoundTrip:
    def test_every_code_rehydrates_to_its_class(self):
        cases = [
            ("invalid-request", ValidationFailed),
            ("unsupported-version", UnsupportedVersion),
            ("rate-limited", AdmissionRejected),
            ("rejected", RequestRejected),
            ("unavailable", BackendUnavailable),
        ]
        for code, cls in cases:
            info = ErrorInfo(code=code, message="m", retryable=cls.retryable, detail="d")
            exc = error_from_info(info)
            assert type(exc) is cls
            assert exc.code == code
            assert exc.detail == "d"

    def test_unknown_code_degrades_to_internal(self):
        exc = error_from_info(ErrorInfo(code="from-the-future", message="m"))
        assert exc.code == "internal"


# --------------------------------------------------------------------- #
# server + remote transport                                              #
# --------------------------------------------------------------------- #


class TestGatewayServing:
    def test_remote_backend_matches_inprocess_assignments(self):
        spec = small_spec(shards=(1, 1))
        stream = build_conformance_stream(REGION, 40, 30, seed=5)
        with serve_gateway(GatewayConfig(spec=spec, backend="inprocess")) as gw:
            remote = run_backend(
                RemoteBackend(spec, address=gw.address), stream, window=16
            )
        from repro.api import make_backend
        from repro.api.conformance import check_parity

        local = run_backend(make_backend("inprocess", spec), stream, window=16)
        assert check_parity([local, remote]) == []
        assert remote.assignments

    def test_structured_error_crosses_the_wire(self):
        spec = small_spec()
        with serve_gateway(GatewayConfig(spec=spec)) as gw:
            with AssignmentClient(RemoteBackend(spec, address=gw.address)) as client:
                client.register_worker(7, (10.0, 10.0))
                with pytest.raises(RequestRejected) as err:
                    client.register_worker(7, (10.0, 10.0))  # duplicate id
                assert err.value.code == "rejected"
                assert err.value.detail  # server-side traceback context rode along
                # the session survives a request-level error
                assert client.submit_task(0, (10.0, 10.0)) == 7

    def test_client_side_validation_never_reaches_the_socket(self):
        spec = small_spec()
        with serve_gateway(GatewayConfig(spec=spec)) as gw:
            with AssignmentClient(RemoteBackend(spec, address=gw.address)) as client:
                with pytest.raises(ValidationFailed):
                    client.register_worker(-1, (0.0, 0.0))
            assert gw.stats["errors"] == 0

    def test_unknown_wire_version_gets_stable_code(self):
        spec = small_spec()
        with serve_gateway(GatewayConfig(spec=spec)) as gw:
            sock = raw_handshake(gw.address)
            doc = to_wire(Flush())
            doc["version"] = 99  # a future producer
            send_frame(sock, doc)
            reply = recv_frame(sock)
            assert reply["kind"] == "error"
            assert reply["body"]["code"] == "unsupported-version"
            # connection still serves properly-versioned requests
            send_frame(sock, to_wire(Flush()))
            assert recv_frame(sock)["kind"] == "flushed"
            sock.close()

    @pytest.mark.parametrize(
        "kind, body",
        [
            ("register_worker", {"worker_id": 1, "location": [1.0, 1.0], "time": 0.0}),
            ("submit_task", {"task_id": 1, "location": [1.0, 1.0], "time": 0.0}),
            ("worker_registered", {"worker_id": 1}),
            ("task_decision", {"task_id": 1, "worker_id": None}),
        ],
    )
    def test_verb_documents_are_unknown_kinds(self, kind, body):
        """A register or submit crosses the wire only as window rows: the
        document forms it and its answers once had are unknown kinds,
        answered with ``invalid-request`` on a session that lives on."""
        spec = small_spec()
        with serve_gateway(GatewayConfig(spec=spec)) as gw:
            sock = raw_handshake(gw.address)
            doc = to_wire(Flush())
            doc["kind"], doc["body"] = kind, body
            send_frame(sock, doc)
            reply = recv_frame(sock)
            assert reply["kind"] == "error"
            assert reply["body"]["code"] == "invalid-request"
            assert "unknown message kind" in reply["body"]["message"]
            # the session lives on, and nothing of the document ran
            send_window(sock, 0, [RegisterWorker(worker_id=1, location=(1.0, 1.0))])
            assert recv_result(sock) == WindowResult(0, [False], [1], [])
            send_frame(sock, to_wire(GetReport()))
            assert recv_frame(sock)["body"]["workers_registered"] == 1
            sock.close()

    def test_junk_frame_answers_error_then_closes(self):
        spec = small_spec()
        with serve_gateway(GatewayConfig(spec=spec)) as gw:
            sock = raw_handshake(gw.address)
            sock.sendall(HEADER.pack(0))  # lying length prefix
            reply = recv_frame(sock)
            assert reply["kind"] == "error"
            assert reply["body"]["code"] == "invalid-request"
            wait_until(lambda: sock.recv(1) == b"", what="server close")
            sock.close()

    def test_json_frame_after_welcome_answers_error_then_closes(self):
        """Every frame after the welcome is bin1: a JSON api frame there
        is a protocol violation, answered and then closed like any other
        framing damage — never served."""
        spec = small_spec()
        with serve_gateway(GatewayConfig(spec=spec)) as gw:
            sock = raw_handshake(gw.address)
            sock.sendall(handshake_frame(to_wire(Flush())))
            reply = recv_frame(sock)
            assert reply["kind"] == "error"
            assert reply["body"]["code"] == "invalid-request"
            wait_until(lambda: sock.recv(1) == b"", what="server close")
            sock.close()
            assert gw.stats["responses"] == 0  # the request never ran

    def test_handshake_rejected_for_foreign_schema(self):
        spec = small_spec()
        with serve_gateway(GatewayConfig(spec=spec)) as gw:
            sock = socket.create_connection(gw.address, timeout=10.0)
            sock.settimeout(10.0)
            bad = hello_doc()
            bad["schema"] = "acme.rpc"
            send_hello(sock, bad)
            reply = recv_frame(sock)
            assert reply["kind"] == "error"
            assert reply["body"]["code"] == "unsupported-version"
            sock.close()
            wait_until(
                lambda: gw.stats["rejected_handshakes"] == 1,
                what="handshake rejection count",
            )
            # a well-behaved client is unaffected
            with AssignmentClient(RemoteBackend(spec, address=gw.address)) as c:
                c.register_worker(0, (1.0, 1.0))

    def test_request_before_handshake_is_refused(self):
        spec = small_spec()
        with serve_gateway(GatewayConfig(spec=spec)) as gw:
            sock = socket.create_connection(gw.address, timeout=10.0)
            sock.settimeout(10.0)
            send_frame(sock, to_wire(Flush()))
            reply = recv_frame(sock)
            assert reply["kind"] == "error"
            sock.close()

    def test_token_bucket_rejections_are_retryable_over_the_wire(self):
        spec = small_spec()
        config = GatewayConfig(spec=spec, rate=1e-3, burst=2)
        with serve_gateway(config) as gw:
            with AssignmentClient(RemoteBackend(spec, address=gw.address)) as client:
                client.register_worker(0, (1.0, 1.0))
                client.register_worker(1, (2.0, 2.0))
                with pytest.raises(AdmissionRejected) as err:
                    client.register_worker(2, (3.0, 3.0))
                assert err.value.code == "rate-limited"
                assert err.value.retryable
                client.flush()  # flushes ride free: the session still works

    def test_a_window_past_the_burst_is_refused_for_good_over_the_wire(self):
        """A window larger than the gateway bucket's burst could never be
        admitted, so it is refused with the non-retryable ``rejected``
        code instead of a ``rate-limited`` hint a client would retry
        forever; the bucket charges it nothing."""
        spec = small_spec()
        config = GatewayConfig(spec=spec, rate=1e-3, burst=4)
        requests = [
            RegisterWorker(worker_id=i, location=(1.0 + i, 1.0)) for i in range(5)
        ]
        with serve_gateway(config) as gw:
            with AssignmentClient(RemoteBackend(spec, address=gw.address)) as client:
                with pytest.raises(RequestRejected) as err:
                    list(client.stream(requests, window=5))
                assert err.value.code == "rejected"
                assert not err.value.retryable
                assert "burst of 4" in err.value.message
                assert len(list(client.stream(requests[:4], window=4))) == 4
                assert client.report().workers_registered == 4

    def test_two_clients_multiplex_one_backend(self):
        spec = small_spec()
        with serve_gateway(GatewayConfig(spec=spec)) as gw:
            a = AssignmentClient(RemoteBackend(spec, address=gw.address)).open()
            b = AssignmentClient(RemoteBackend(spec, address=gw.address)).open()
            try:
                a.register_worker(0, (10.0, 10.0))
                b.register_worker(1, (150.0, 150.0))
                assert a.submit_task(0, (10.0, 10.0)) == 0
                assert b.submit_task(1, (150.0, 150.0)) == 1
                assert a.report().workers_registered == 2
                assert len(gw.sessions) == 2
            finally:
                a.close()
                b.close()
            assert gw.backend.name == "sharded"

    def test_sessions_get_distinct_ids(self):
        spec = small_spec()
        with serve_gateway(GatewayConfig(spec=spec)) as gw:
            backends = [RemoteBackend(spec, address=gw.address) for _ in range(3)]
            for backend in backends:
                backend.open()
            try:
                assert len({b.session for b in backends}) == 3
                assert all(b.api_version == 1 for b in backends)
                assert all(b.server_backend == "sharded" for b in backends)
            finally:
                for backend in backends:
                    backend.close()


class TestConnectionFaults:
    def test_disconnect_mid_frame_leaves_backend_clean(self):
        """A client cut off mid-frame must execute nothing and leave the
        next session a working backend with no partial state."""
        spec = small_spec()
        with serve_gateway(GatewayConfig(spec=spec)) as gw:
            sock = raw_handshake(gw.address)
            # half a register frame: header promises more than is sent
            frame = window_frame(0, [RegisterWorker(worker_id=0, location=(1.0, 1.0))])
            sock.sendall(frame[: len(frame) // 2])
            sock.close()
            wait_until(lambda: gw.stats["truncated"] == 1, what="truncation count")
            wait_until(lambda: not gw.sessions, what="session teardown")
            with AssignmentClient(RemoteBackend(spec, address=gw.address)) as client:
                client.register_worker(0, (1.0, 1.0))  # same id: nothing was burned
                assert client.report().workers_registered == 1

    def test_disconnect_after_batch_executes_it_exactly_once(self):
        """A fully received window executes even if the client vanishes
        before reading the reply — and the next client sees exactly that
        state, no more, no less."""
        spec = small_spec()
        with serve_gateway(GatewayConfig(spec=spec)) as gw:
            sock = raw_handshake(gw.address)
            window = StreamWindow.of(
                0,
                [
                    RegisterWorker(worker_id=i, location=(10.0 * i + 5.0, 20.0))
                    for i in range(3)
                ],
            )
            sock.sendall(payload_frame(encode_stream_batch(window)))
            sock.close()  # gone before the WindowResult comes back
            wait_until(lambda: gw.stats["responses"] == 1, what="window completion")
            wait_until(lambda: not gw.sessions, what="session teardown")
            with AssignmentClient(RemoteBackend(spec, address=gw.address)) as client:
                with pytest.raises(RequestRejected):
                    client.register_worker(1, (5.0, 5.0))  # burned by client A
                client.register_worker(10, (99.0, 99.0))
                assert client.report().workers_registered == 4

    def test_drain_tells_idle_clients_goodbye(self):
        spec = small_spec()
        gw_config = GatewayConfig(spec=spec, drain_timeout=5.0)
        remote = RemoteBackend(spec, address=("127.0.0.1", 0))
        with serve_gateway(gw_config) as gw:
            remote = RemoteBackend(spec, address=gw.address)
            remote.open()
            remote_addr = gw.address
        # the context exit drained the server: the idle connection was
        # told goodbye, so the next call fails unavailable, not by hang
        with pytest.raises(BackendUnavailable):
            remote.handle(StreamWindow.of(0, [RegisterWorker(worker_id=0, location=(1.0, 1.0))]))
        remote.close()
        with pytest.raises(BackendUnavailable):
            RemoteBackend(spec, address=remote_addr, connect_timeout=2.0).open()

    def test_connect_to_dead_port_is_unavailable(self):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()  # nobody listens here anymore
        backend = RemoteBackend(address=("127.0.0.1", port), connect_timeout=2.0)
        with pytest.raises(BackendUnavailable) as err:
            backend.open()
        assert err.value.retryable

    def test_calls_after_lost_connection_stay_unavailable(self):
        """Every call after a drop must keep raising the structured
        BackendUnavailable — never an AttributeError on a dead socket."""
        spec = small_spec()
        with serve_gateway(GatewayConfig(spec=spec)) as gw:
            remote = RemoteBackend(spec, address=gw.address)
            remote.open()
        req = StreamWindow.of(0, [RegisterWorker(worker_id=0, location=(1.0, 1.0))])
        for _ in range(3):
            with pytest.raises(BackendUnavailable):
                remote.handle(req)
        remote.close()

    def test_lost_connection_mid_pipeline_stays_unavailable(self):
        """A transport lost with pipelined responses still owed must make
        later sync calls fail retryable-unavailable — not trip the
        in-flight guard's caller-bug ValidationFailed (a dead socket owes
        nothing)."""
        spec = small_spec()
        with serve_gateway(GatewayConfig(spec=spec)) as gw:
            backend = RemoteBackend(spec, address=gw.address)
            backend.open()
            backend.send_request(
                StreamWindow.of(0, [RegisterWorker(worker_id=0, location=(1.0, 1.0))])
            )
            backend._drop()  # the transport dies with one response owed
            with pytest.raises(BackendUnavailable):
                backend.handle(
                    StreamWindow.of(1, [RegisterWorker(worker_id=1, location=(2.0, 2.0))])
                )
            backend.close()

    def test_malformed_welcome_does_not_leak_the_socket(self):
        """A server whose welcome fails to parse must leave the client
        fully closed (no dangling socket, no half-open state)."""
        import threading

        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)

        def bad_server():
            conn, _ = listener.accept()
            recv_frame(conn)  # swallow the hello
            conn.sendall(
                handshake_frame(welcome_doc(1, "sharded", 1) | {"body": {}})
            )
            conn.close()

        thread = threading.Thread(target=bad_server, daemon=True)
        thread.start()
        backend = RemoteBackend(address=listener.getsockname(), connect_timeout=2.0)
        with pytest.raises(ValidationFailed):
            backend.open()
        assert backend._sock is None  # dropped, not leaked
        thread.join(timeout=5.0)
        listener.close()

    def test_undecodable_response_spends_its_slot(self):
        """A well-framed response whose payload fails to decode raises
        invalid-request for its own call — and the next call must read
        its own answer, not trip the pipelined-in-flight guard: the frame
        was fully read, so the stream is still aligned."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        junk = b"\xb1\x01\x00not json"  # bin1 generic tag, junk body

        def fake_gateway():
            conn, _ = listener.accept()
            with conn:
                recv_frame(conn)  # the hello
                conn.sendall(handshake_frame(welcome_doc(1, "sharded", 1)))
                recv_payload(conn)  # first request: answered with junk
                conn.sendall(HEADER.pack(len(junk)) + junk)
                window, _ = decode_stream_batch(recv_payload(conn))  # answered
                result = WindowResult(window.seq, window.is_task, window.ids, [])
                conn.sendall(payload_frame(encode_stream_result(result)))
                recv_frame(conn)  # the client's goodbye

        thread = threading.Thread(target=fake_gateway, daemon=True)
        thread.start()
        backend = RemoteBackend(address=listener.getsockname(), connect_timeout=2.0)
        backend.open()
        try:
            with pytest.raises(ValidationFailed) as err:
                backend.handle(
                    StreamWindow.of(0, [RegisterWorker(worker_id=1, location=(1.0, 1.0))])
                )
            assert err.value.code == "invalid-request"
            assert backend.handle(
                StreamWindow.of(1, [RegisterWorker(worker_id=2, location=(2.0, 2.0))])
            ) == WindowResult(1, [False], [2], [])
        finally:
            backend.close()
            thread.join(timeout=5.0)
            listener.close()


def slow_middleware(delay: float, only_kind: str | None = None):
    """Middleware that stalls the handler — the adversarial scheduler."""

    def layer(request, call_next):
        if only_kind is None or type(request).kind == only_kind:
            time.sleep(delay)
        return call_next(request)

    return layer


def slow_window_holding(worker_id: int, delay: float):
    """Middleware that stalls the stream window registering ``worker_id``."""

    def layer(request, call_next):
        if type(request) is StreamWindow and any(
            not task and ident == worker_id
            for task, ident in zip(request.is_task, request.ids)
        ):
            time.sleep(delay)
        return call_next(request)

    return layer


class _SlowFirstWindow(ShardedBackend):
    """Ends each window's scheduler hold at once, as the mesh does once a
    window is journaled, then stalls the window at seq 0: a later
    window finishes first."""

    def handle_run(self, window):
        release_order()
        if window.seq == 0:
            time.sleep(0.3)
        return super().handle_run(window)


class TestPipelinedSessions:
    def test_old_client_keeps_request_response_order(self):
        """A hello without features gets protocol v1: answers in request
        order even when the first request is slower than the second."""
        spec = small_spec()
        server_mw = [
            RequestValidator(),
            slow_window_holding(0, 0.2),
            ErrorMapper(),
        ]
        from repro.gateway import GatewayServer

        server = GatewayServer(GatewayConfig(spec=spec), middleware=server_mw)
        with serve_gateway(server=server) as gw:
            sock = raw_handshake(gw.address)  # no features offered
            # slow register (shard s0), fast submit (other shard), each
            # a sync call's window of one row
            send_window(sock, 0, [RegisterWorker(worker_id=0, location=(1.0, 1.0))])
            send_window(sock, 1, [SubmitTask(task_id=0, location=(199.0, 199.0))])
            first, second = recv_result(sock), recv_result(sock)
            assert (first.seq, first.is_task) == (0, [False])
            assert (second.seq, second.is_task) == (1, [True])
            sock.close()

    def test_answers_leave_in_arrival_order_across_shards(self):
        """Two windows for different shards in flight, the first one slow
        and the second free to run beside it: the second finishes first,
        but its answer still leaves after the first's."""
        spec = small_spec()
        with serve_gateway(
            GatewayConfig(spec=spec), backend=_SlowFirstWindow(spec)
        ) as gw:
            backend = RemoteBackend(spec, address=gw.address)
            backend.open()
            try:
                backend.send_request(
                    StreamWindow.of(0, [RegisterWorker(0, (1.0, 1.0))])
                )
                backend.send_request(
                    StreamWindow.of(1, [SubmitTask(0, (199.0, 199.0))])
                )
                first, second = backend.recv_response(), backend.recv_response()
            finally:
                backend.close()
        assert (first.seq, second.seq) == (0, 1)
        assert first.ids == [0] and second.ids == [0]
        assert (first.is_task, second.is_task) == ([False], [True])

    def test_hello_offering_pipeline_is_welcomed_and_ignored(self):
        """``pipeline`` is no feature any more: a hello that still offers
        it is welcomed like any hello naming an unknown feature, and the
        welcome grants nothing."""
        spec = small_spec()
        with serve_gateway(GatewayConfig(spec=spec)) as gw:
            sock = socket.create_connection(gw.address, timeout=10.0)
            sock.settimeout(10.0)
            send_hello(sock, hello_doc(features=("pipeline",)))
            welcome = recv_frame(sock)
            assert welcome["kind"] == "welcome"
            assert welcome["body"]["features"] == []
            send_window(sock, 0, [RegisterWorker(worker_id=0, location=(1.0, 1.0))])
            assert recv_result(sock) == WindowResult(0, [False], [0], [])
            sock.close()

    def test_same_shard_envelopes_never_reorder(self):
        """Ten sync registers (windows of one row) read ahead on one
        session are answered in the order they were sent."""
        spec = small_spec()
        with serve_gateway(GatewayConfig(spec=spec)) as gw:
            sock = raw_handshake(gw.address)
            for i in range(10):
                send_window(
                    sock, i, [RegisterWorker(worker_id=i, location=(1.0 + 0.1 * i, 1.0))]
                )
            ids = [recv_result(sock).ids[0] for _ in range(10)]
            assert ids == list(range(10))
            sock.close()

    def test_pipelined_client_stream_is_bit_identical(self):
        """The end-to-end satellite: AssignmentClient with a pipelined
        window over a real socket equals the serial in-process replay."""
        spec = small_spec()
        stream = build_conformance_stream(REGION, 60, 45, seed=5)
        from repro.api import make_backend
        from repro.api.conformance import check_parity

        local = run_backend(make_backend("sharded", spec), stream, window=16)
        with serve_gateway(GatewayConfig(spec=spec)) as gw:
            backend = RemoteBackend(spec, address=gw.address)
            remote = run_backend(backend, stream, window=16, pipeline=4)
            assert backend.supports_pipeline
        assert check_parity([local, remote]) == []
        assert remote.assignments

    def test_error_frames_among_drained_windows_are_consumed(self):
        """When a pipelined stream aborts, outstanding windows whose
        responses are *also* error frames must still be consumed — only
        a dead transport stops the drain. Otherwise a later sync call
        reads a stale window response as its own."""
        spec = small_spec()
        with serve_gateway(GatewayConfig(spec=spec)) as gw:
            with AssignmentClient(
                RemoteBackend(spec, address=gw.address)
            ) as client:
                client.register_worker(1, (10.0, 10.0))
                requests = [
                    RegisterWorker(worker_id=1, location=(10.0, 10.0)),  # dup
                    RegisterWorker(worker_id=1, location=(10.0, 10.0)),  # dup
                    RegisterWorker(worker_id=2, location=(12.0, 12.0)),  # fine
                ]
                with pytest.raises(RequestRejected):
                    list(client.stream(requests, window=1, pipeline=3))
                # all three response frames were consumed: the next sync
                # call reads its own answer, not window 2's or 3's
                assert client.submit_task(0, (10.0, 10.0)) in (1, 2)

    def test_sync_call_mid_pipelined_stream_is_refused(self):
        """handle() while stream windows are in flight would steal the
        next window's frame; it must fail structurally instead."""
        spec = small_spec()
        requests = [
            RegisterWorker(worker_id=i, location=(1.0 + i, 2.0))
            for i in range(8)
        ]
        with serve_gateway(GatewayConfig(spec=spec)) as gw:
            with AssignmentClient(
                RemoteBackend(spec, address=gw.address)
            ) as client:
                iterator = client.stream(requests, window=2, pipeline=3)
                next(iterator)  # windows still in flight behind this yield
                with pytest.raises(ValidationFailed):
                    client.flush()
                # the stream itself is unharmed by the refused call
                assert len(list(iterator)) == 7
                client.flush()

    def test_recv_without_outstanding_send_fails_structurally(self):
        """recv_response with nothing in flight is a caller bug: it must
        fail immediately, not block on a frame that will never come."""
        spec = small_spec()
        with serve_gateway(GatewayConfig(spec=spec)) as gw:
            backend = RemoteBackend(spec, address=gw.address)
            backend.open()
            try:
                with pytest.raises(ValidationFailed):
                    backend.recv_response()
                # the session is untouched by the refused receive
                backend.send_request(
                    StreamWindow.of(0, [RegisterWorker(worker_id=0, location=(1.0, 1.0))])
                )
                assert backend.recv_response().ids == [0]
            finally:
                backend.close()

    def test_request_error_mid_window_keeps_the_session(self):
        spec = small_spec()
        with serve_gateway(GatewayConfig(spec=spec)) as gw:
            with AssignmentClient(
                RemoteBackend(spec, address=gw.address)
            ) as client:
                client.register_worker(3, (10.0, 10.0))
                requests = [
                    RegisterWorker(worker_id=3, location=(10.0, 10.0)),  # dup
                    RegisterWorker(worker_id=4, location=(11.0, 11.0)),
                ]
                with pytest.raises(RequestRejected):
                    list(client.stream(requests, window=1, pipeline=2))
                # outstanding responses were drained: the session and the
                # connection both survive for ordinary calls
                assert client.submit_task(0, (10.0, 10.0)) in (3, 4)


class TestPipelinedDrain:
    def test_drain_flushes_in_flight_windows_before_goodbye(self):
        """Regression (satellite): a drain must answer every accepted
        frame of a pipelined session, then say goodbye — not just wave
        at idle connections."""
        spec = small_spec()
        server_mw = [RequestValidator(), slow_middleware(0.15), ErrorMapper()]
        from repro.gateway import GatewayServer

        server = GatewayServer(
            GatewayConfig(spec=spec, drain_timeout=20.0), middleware=server_mw
        )
        n = 4
        with serve_gateway(server=server) as gw:
            sock = raw_handshake(gw.address)
            for i in range(n):
                send_window(sock, i, [RegisterWorker(worker_id=i, location=(1.0 + i, 2.0))])
            # give the reader a beat to accept the frames, then drain
            wait_until(
                lambda: gw.stats["frames"] >= n + 1, what="frames accepted"
            )
        # serve_gateway's exit ran stop(): every accepted frame must have
        # been answered, in send order, and only then the goodbye
        ids = [recv_result(sock).ids[0] for _ in range(n)]
        assert ids == list(range(n))
        farewell = recv_frame(sock)
        assert farewell["kind"] == "goodbye"
        assert farewell["schema"] == GATEWAY_SCHEMA
        sock.close()

    def test_drain_answers_a_plain_sessions_frame_before_goodbye(self):
        """A drain that starts while a session's one frame runs still
        answers it, and only then says goodbye."""
        spec = small_spec()
        server_mw = [RequestValidator(), slow_middleware(0.3), ErrorMapper()]
        from repro.gateway import GatewayServer

        server = GatewayServer(
            GatewayConfig(spec=spec, drain_timeout=20.0), middleware=server_mw
        )
        with serve_gateway(server=server) as gw:
            sock = raw_handshake(gw.address)  # no features offered
            send_window(sock, 0, [RegisterWorker(worker_id=0, location=(1.0, 1.0))])
            wait_until(lambda: gw.stats["frames"] >= 2, what="frame accepted")
        answer = recv_result(sock)
        assert (answer.is_task, answer.ids) == ([False], [0])
        farewell = recv_frame(sock)
        assert farewell["kind"] == "goodbye"
        assert farewell["schema"] == GATEWAY_SCHEMA
        sock.close()

    def test_drain_mid_pipelined_stream_surfaces_unavailable(self):
        """A client streaming through the drain gets the structured
        BackendUnavailable (goodbye), never a hang or a stale frame."""
        spec = small_spec()
        stream = build_conformance_stream(REGION, 200, 150, seed=3)
        server_mw = [RequestValidator(), slow_middleware(0.05), ErrorMapper()]
        from repro.gateway import GatewayServer

        server = GatewayServer(
            GatewayConfig(spec=spec, drain_timeout=20.0), middleware=server_mw
        )
        got: list = []
        with serve_gateway(server=server) as gw:
            client = AssignmentClient(
                RemoteBackend(spec, address=gw.address)
            ).open()
            iterator = client.stream(stream, window=8, pipeline=4)
            got.append(next(iterator))
            # leave the context mid-stream: the exit runs stop(), which
            # flushes this session's in-flight windows and says goodbye
        with pytest.raises(BackendUnavailable):
            for response in iterator:
                got.append(response)
        assert got  # the stream was genuinely mid-flight
        assert len(got) < 350  # and nowhere near complete


def _wire_counts(spec, requests, window: int):
    """Stream ``requests`` over one session; returns the client's byte
    counters and the server stats, read with the stream drained but the
    session still open: every request has its answer, and no goodbye is
    on either side's count."""
    with serve_gateway(GatewayConfig(spec=spec)) as gw:
        backend = RemoteBackend(spec, address=gw.address)
        with AssignmentClient(backend) as client:
            list(client.stream(requests, window=window))
            client.flush()
            return backend.bytes_sent, backend.bytes_received, dict(gw.stats)


class TestWireAccounting:
    def test_client_and_server_byte_counters_agree(self):
        """Client and server counters describe the same wire: everything
        the client sent the server read, and vice versa."""
        requests = build_conformance_stream(REGION, 200, 100, seed=5)
        sent, received, stats = _wire_counts(small_spec(), requests, window=32)
        assert sent == stats["bytes_in"] > 0
        assert received == stats["bytes_out"] > 0

    def test_stream_frames_scale_with_windows_not_events(self):
        """A stream window rides one frame each way: inbound frames stay
        near the window count, nowhere near the event count."""
        requests = build_conformance_stream(REGION, 200, 100, seed=5)
        _, _, stats = _wire_counts(small_spec(), requests, window=32)
        windows = -(-len(requests) // 32)  # ceil
        # hello + windows + flush, with slack
        assert stats["frames"] <= windows + 8
        assert stats["frames"] < len(requests) / 4

    def test_traced_and_untraced_sessions_send_windows_as_rows(self):
        """A window and its answer have one layout on every session: on
        a traced and an untraced session alike every window frame is
        tag 0x07 and every answer tag 0x18, the two sessions' window
        frames are byte-identical up to their tails (the traced one's
        holds the client's span context), the traced session's
        ``gateway.dispatch`` spans parent under the client's spans, and
        both sessions answer as the in-process replay."""
        from repro.api import make_backend
        from repro.obs.trace import Tracer

        spec = small_spec()
        requests = build_conformance_stream(REGION, 60, 40, seed=5)
        with AssignmentClient(make_backend("sharded", spec)) as client:
            reference = _decisions(client.stream(requests, window=16))
        n_windows = -(-len(requests) // 16)
        frames = {}
        for traced in (False, True):
            tracer = Tracer() if traced else None
            with serve_gateway(GatewayConfig(spec=spec, trace=True)) as gw:
                backend = RemoteBackend(spec, address=gw.address, trace=traced)
                with AssignmentClient(backend, tracer=tracer) as client:
                    assert backend.supports_trace is traced
                    sent, received = _spy_frames(backend)
                    answers = _decisions(client.stream(requests, window=16))
                    frames[traced] = list(sent)
                    assert [p[2] for p in sent] == [STREAM_BATCH_TAG] * n_windows
                    assert [p[2] for p in received] == [STREAM_RESULT_TAG] * n_windows
                    client.flush()
                    assert sent[-1][2] == GENERIC_TAG  # a flush stays a document
                dispatches = [
                    span for span in gw.tracer.spans
                    if span["name"] == "gateway.dispatch"
                ]
            assert answers == reference
            if traced:
                client_spans = {span["span"]: span for span in tracer.spans}
                windows = [s for s in dispatches if s["attrs"]["kind"] == "stream_window"]
                assert len(windows) == n_windows
                for span in windows:
                    parent = client_spans[span["parent"]]
                    assert parent["name"] == "client.request"
                    assert span["trace"] == parent["trace"]
            else:
                assert dispatches == []
        for plain, traced in zip(frames[False], frames[True], strict=True):
            assert plain[-4:] == b"\0\0\0\0"  # an empty tail
            assert traced[: len(plain) - 4] == plain[:-4]
            window, trace = decode_stream_batch(traced)
            assert trace is not None and decode_stream_batch(plain) == (window, None)


    def test_an_empty_window_round_trips(self):
        """An empty window is zero rows: it crosses the gateway and
        comes back as an empty answer with its seq."""
        spec = small_spec()
        with serve_gateway(GatewayConfig(spec=spec)) as gw:
            with AssignmentClient(RemoteBackend(spec, address=gw.address)) as client:
                answer = client.call(StreamWindow.of(7, []))
                assert (answer.seq, answer.ids, answer.workers) == (7, [], [])
                assert client.report().workers_registered == 0


def _spy_frames(backend) -> tuple[list, list]:
    """Record every payload an open ``backend`` sends and receives from
    here on, as it crosses the socket."""
    sent, received = [], []
    send, recv = backend._send_frame, backend._recv_payload

    def spy_send(frame: bytes) -> None:
        sent.append(frame[HEADER.size :])
        send(frame)

    def spy_recv() -> bytes:
        received.append(recv())
        return received[-1]

    backend._send_frame, backend._recv_payload = spy_send, spy_recv
    return sent, received


def _decisions(responses) -> list:
    return [
        (r.task_id, r.worker_id) for r in responses if isinstance(r, TaskDecision)
    ]


def _stream_per_shard(address, spec, substreams, *, depth: int) -> list:
    """One connection and one client thread per substream; returns each
    substream's decisions (or the exception that ended it)."""
    clients = [
        AssignmentClient(RemoteBackend(spec, address=address)).open()
        for _ in substreams
    ]
    results: list = [None] * len(substreams)

    def run(i: int) -> None:
        try:
            results[i] = _decisions(
                clients[i].stream(substreams[i], window=16, pipeline=depth)
            )
        except BaseException as exc:  # surfaced by the caller's assert
            results[i] = exc

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(clients))]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        for client in clients:
            client.close()
    return results


class TestPipelinedMeshDispatch:
    def test_serial_and_pipelined_gateways_decide_alike_per_shard(self):
        """One connection per shard family over a 2-peer mesh: clients
        that keep one window in flight and clients that keep four give
        equal per-shard answers, and both equal the in-process replay —
        read-ahead and the mesh's per-family dispatch change when work
        runs, never what it decides."""
        from repro.api import make_backend

        spec = small_spec()
        shard_map = ShardMap(spec.region, *spec.shards)
        substreams: list = [[] for _ in range(shard_map.n_shards)]
        for request in build_conformance_stream(REGION, 300, 150, seed=9):
            substreams[int(shard_map.shard_of(request.location))].append(request)
        with AssignmentClient(make_backend("sharded", spec)) as client:
            reference = [
                _decisions(client.stream(sub, window=16)) for sub in substreams
            ]
        assert all(reference)  # every shard decided something
        config = GatewayConfig(
            spec=spec,
            backend="mesh",
            backend_kwargs={"n_peers": 2, "chunk_size": 16},
        )
        for depth in (1, 4):
            # a fresh gateway per depth: the substreams register each
            # worker id once
            with serve_gateway(config) as gw:
                answers = _stream_per_shard(gw.address, spec, substreams, depth=depth)
            assert answers == reference, f"depth={depth}"

    def test_next_window_journals_while_outcomes_are_in_flight(self):
        """Two windows (gateway barriers) in flight over a 2-peer mesh:
        window 2 is journaled while window 1's outcomes are still held
        back, and the answers equal the in-process replay."""
        from repro.api import make_backend

        spec = small_spec()
        stream = build_conformance_stream(REGION, 20, 12, seed=1)
        backend = MeshBackend(spec, n_peers=2, checkpoint_every=0)
        hold = threading.Event()
        received: list = []
        with serve_gateway(GatewayConfig(spec=spec), backend=backend) as gw:
            coordinator = backend.coordinator
            acknowledge = coordinator._acknowledge

            def held_acknowledge(*args):
                hold.wait(30.0)
                return acknowledge(*args)

            coordinator._acknowledge = held_acknowledge
            client = AssignmentClient(RemoteBackend(spec, address=gw.address))
            client.open()
            streamer = threading.Thread(
                target=lambda: received.extend(
                    client.stream(stream, window=16, pipeline=2)
                ),
                daemon=True,
            )
            try:
                streamer.start()
                wait_until(
                    lambda: sum(map(coordinator._journal.end, range(4))) == len(stream),
                    timeout=5.0,
                    what="window 2 journaled behind window 1",
                )
                assert received == []  # window 1 is still unanswered
            finally:
                hold.set()
                streamer.join(timeout=30.0)
                client.close()
        with AssignmentClient(make_backend("sharded", spec)) as ref_client:
            reference = _decisions(ref_client.stream(stream, window=16))
        assert _decisions(received) == reference


def _answers_before_error(
    client, requests, *, window: int, pipeline: int, error=RequestRejected
):
    """Everything a stream yields before it raises ``error``."""
    got: list = []
    with pytest.raises(error):
        for response in client.stream(requests, window=window, pipeline=pipeline):
            got.append(response)
    return got


class TestErrorsKeepEarlierAnswers:
    """A later unit's error never costs the caller an earlier unit's
    answers: a pipelined stream yields exactly what a serial one yields
    before it raises."""

    def test_sharded_gateway(self):
        spec = small_spec(shards=(2, 2))
        requests = [
            RegisterWorker(worker_id=1, location=(1.0, 1.0)),
            RegisterWorker(worker_id=9, location=(199.0, 199.0)),  # repeated id
        ]
        from repro.gateway import GatewayServer

        runs = {}
        for pipeline in (1, 2):
            server = GatewayServer(
                GatewayConfig(spec=spec),
                middleware=[
                    RequestValidator(),
                    slow_window_holding(1, 0.3),
                    ErrorMapper(),
                ],
            )
            with serve_gateway(server=server) as gw:
                with AssignmentClient(RemoteBackend(spec, address=gw.address)) as client:
                    client.register_worker(9, (199.0, 199.0))
                    runs[pipeline] = _answers_before_error(
                        client, requests, window=1, pipeline=pipeline
                    )
        assert runs[1] == [WorkerRegistered(worker_id=1)]
        assert runs[2] == runs[1]

    def test_mesh_gateway(self):
        spec = small_spec(shards=(2, 2))
        requests = [
            RegisterWorker(worker_id=1, location=(1.0, 1.0)),
            SubmitTask(task_id=0, location=(2.0, 2.0)),
            RegisterWorker(worker_id=9, location=(199.0, 199.0)),  # repeated id
            RegisterWorker(worker_id=10, location=(198.0, 198.0)),
        ]
        runs = {}
        for pipeline in (1, 2):
            backend = MeshBackend(spec, n_peers=2, checkpoint_every=0)
            with serve_gateway(GatewayConfig(spec=spec), backend=backend) as gw:
                with AssignmentClient(RemoteBackend(spec, address=gw.address)) as client:
                    client.register_worker(9, (199.0, 199.0))
                    coordinator = backend.coordinator
                    acknowledge = coordinator._acknowledge

                    def held_acknowledge(*args):
                        time.sleep(0.5)  # window 1's outcomes arrive late
                        return acknowledge(*args)

                    coordinator._acknowledge = held_acknowledge
                    runs[pipeline] = _answers_before_error(
                        client, requests, window=2, pipeline=pipeline
                    )
        assert runs[1] == [
            WorkerRegistered(worker_id=1),
            TaskDecision(task_id=0, worker_id=1),
        ]
        assert runs[2] == runs[1]

    def test_unit_refused_before_it_is_sent(self):
        """The client's own chain refuses the second unit, so it never
        reaches the wire; the first one is already in flight and its
        answer is still yielded."""
        spec = small_spec(shards=(2, 2))
        requests = [
            RegisterWorker(worker_id=1, location=(1.0, 1.0)),
            RegisterWorker(worker_id=-5, location=(2.0, 2.0)),  # invalid id
        ]
        runs = {}
        for pipeline in (1, 2):
            with serve_gateway(GatewayConfig(spec=spec)) as gw:
                with AssignmentClient(RemoteBackend(spec, address=gw.address)) as client:
                    runs[pipeline] = _answers_before_error(
                        client,
                        requests,
                        window=1,
                        pipeline=pipeline,
                        error=ValidationFailed,
                    )
                    assert client.report().workers_registered == 1
        assert runs[1] == [WorkerRegistered(worker_id=1)]
        assert runs[2] == runs[1]


class TestMeshBehindGateway:
    @pytest.mark.parametrize("pipeline", [1, 4])
    def test_sigkill_worker_behind_gateway_recovers_bit_exact(self, pipeline):
        """SIGKILL a mesh worker mid-stream *behind* the gateway: the
        restore+replay path must kick in and the remote client's total
        answer stream must stay bit-identical to a clean sharded run —
        no lost tasks, no duplicated replies."""
        spec = small_spec(seed=11)
        stream = build_conformance_stream(REGION, 60, 45, seed=7)
        half = len(stream) // 2
        backend = MeshBackend(spec, n_peers=2, chunk_size=7, checkpoint_every=32)
        config = GatewayConfig(spec=spec, backend="mesh")
        decisions = []
        with serve_gateway(config, backend=backend) as gw:
            remote = RemoteBackend(spec, address=gw.address)
            with AssignmentClient(remote) as client:
                decisions += [
                    r
                    for r in client.stream(
                        stream[:half], window=16, pipeline=pipeline
                    )
                    if isinstance(r, TaskDecision)
                ]
                backend.kill_worker(0)
                decisions += [
                    r
                    for r in client.stream(
                        stream[half:], window=16, pipeline=pipeline
                    )
                    if isinstance(r, TaskDecision)
                ]
                client.flush()
                report = client.report()
                failovers = backend.coordinator.failovers
        assert failovers >= 1
        pairs = [(d.task_id, d.worker_id) for d in decisions if d.worker_id is not None]
        misses = [d.task_id for d in decisions if d.worker_id is None]
        # no duplicated replies either way
        assert len({d.task_id for d in decisions}) == len(decisions)

        from repro.api import make_backend

        with AssignmentClient(make_backend("sharded", spec)) as ref_client:
            ref = [
                r for r in ref_client.stream(stream, window=16)
                if isinstance(r, TaskDecision)
            ]
            ref_client.flush()
            ref_report = ref_client.report()
        assert pairs == [
            (d.task_id, d.worker_id) for d in ref if d.worker_id is not None
        ]
        assert misses == [d.task_id for d in ref if d.worker_id is None]
        assert report.workers_registered == ref_report.workers_registered
        assert report.tasks_assigned == ref_report.tasks_assigned


class TestTeardown:
    def test_mesh_gateway_is_freed_without_a_collection(self):
        """Stopping a mesh-backed gateway leaves no reference cycle
        through the gateway or the mesh coordinator: both are freed by
        reference counting alone, with the collector switched off."""
        spec = small_spec()
        stream = build_conformance_stream(REGION, 60, 45, seed=7)
        config = GatewayConfig(
            spec=spec, backend="mesh", backend_kwargs={"n_peers": 2}
        )
        gc.collect()
        gc.disable()
        try:
            with serve_gateway(config) as gw:
                with AssignmentClient(RemoteBackend(spec, address=gw.address)) as client:
                    assert _decisions(client.stream(stream, window=16, pipeline=2))
                gateway = weakref.ref(gw)
                coordinator = weakref.ref(gw.backend.coordinator)
            del gw, client
            assert gateway() is None, "the stopped gateway is cyclic garbage"
            assert coordinator() is None, "the closed coordinator is cyclic garbage"
        finally:
            gc.enable()


class TestGatewayConfig:
    def test_json_round_trip(self):
        import json

        config = GatewayConfig(
            spec=small_spec(),
            backend="mesh",
            backend_kwargs={"n_peers": 2, "chunk_size": 7},
            port=7713,
            rate=500.0,
            burst=64,
            max_inflight=17,
        )
        hydrated = GatewayConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert hydrated == config
        assert hydrated.max_inflight == 17

    def test_pipeline_knobs_default_on(self):
        # every gateway pipelines, on a pool default_worker_count() sizes
        doc = GatewayConfig(spec=small_spec()).to_dict()
        assert "pipeline" not in doc
        assert "pipeline_workers" not in doc
        with pytest.raises(TypeError):
            GatewayConfig(spec=small_spec(), pipeline_workers=3)

    def test_invalid_inflight_rejected(self):
        with pytest.raises(ValueError):
            GatewayConfig(spec=small_spec(), max_inflight=0)

    def test_stop_before_start_still_closes_backend(self):
        """stop() on a never-started server must not crash and must
        close the backend — a half-started mesh holds real worker
        processes that would otherwise leak."""
        import asyncio

        from repro.gateway import GatewayServer

        server = GatewayServer(GatewayConfig(spec=small_spec()))
        asyncio.run(server.stop())
        assert server.backend._closed


class TestSmokeCli:
    def test_gateway_smoke_passes(self, capsys):
        from repro.gateway.__main__ import main

        assert main(["--smoke", "--workers", "40", "--tasks", "30"]) == 0
        out = capsys.readouterr()
        assert "PARITY OK" in out.out
        assert "OK" in out.err

    def test_gateway_smoke_json_over_inprocess(self, capsys):
        import json

        from repro.gateway.__main__ import main

        assert (
            main(
                [
                    "--smoke",
                    "--backend",
                    "inprocess",
                    "--workers",
                    "30",
                    "--tasks",
                    "20",
                    "--json",
                ]
            )
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert doc["cases"][0]["backends"] == [
            "inprocess",
            "sharded",
            "remote",
        ]

"""The client-side transport: a gateway connection as a ``Backend``.

:class:`RemoteBackend` satisfies the :class:`~repro.api.backends.Backend`
contract over a TCP connection, so an unmodified
:class:`~repro.api.client.AssignmentClient` — sync calls, streaming
windows, middleware and all — gains network access just by being
handed one. ``open()`` connects and handshakes (schema-version
negotiation included), ``handle()`` writes one frame and blocks for one
response frame, ``close()`` says goodbye. The hello and welcome travel
as JSON; every frame after the welcome is bin1 — a
:class:`~repro.api.messages.StreamWindow` as rows on every session
(:func:`~repro.gateway.codec.encode_stream_batch`, answered by a
:class:`~repro.api.messages.WindowResult` as rows; a sync register or
submit is a window of one row), a flush or report as a generic
document. On a session that negotiated ``trace``, the caller's current
span context crosses with each request: in a document's ``trace`` key,
or in a window's JSON tail.

The transport splits send and receive
(:attr:`RemoteBackend.supports_pipeline` is true): a caller may use the
:meth:`RemoteBackend.send_request` / :meth:`RemoteBackend.recv_response`
pair to keep several requests in flight. The gateway answers a
session's frames in the order they arrived, so the next response always
belongs to the oldest request in flight.

Error discipline: a structured error answered by the server (the api
``error`` kind) is re-raised locally as the matching
:class:`~repro.api.errors.ApiError` subclass — same codes, same
``retryable`` hints as in-process. Transport failures (refused, reset,
timed out, server draining) raise the retryable
:class:`~repro.api.errors.BackendUnavailable`.
"""

from __future__ import annotations

import socket

from ..api.backends import BackendBase, ServiceSpec
from ..api.errors import BackendUnavailable, ValidationFailed, error_from_info
from ..api.messages import (
    WIRE_VERSION,
    ErrorInfo,
    StreamWindow,
    attach_trace,
    from_wire,
    to_wire,
)
from ..obs.trace import current_context
from .codec import decode_stream_result, encode_stream_batch
from .protocol import (
    BIN1_MAGIC,
    HEADER,
    MAX_FRAME_BYTES,
    STREAM_RESULT_TAG,
    TRACE_FEATURE,
    check_frame_length,
    decode_payload,
    encode_frame,
    goodbye_doc,
    handshake_frame,
    hello_doc,
    is_gateway_doc,
    parse_welcome,
    payload_frame,
)

__all__ = ["RemoteBackend"]


class RemoteBackend(BackendBase):
    """A remote gateway behind the in-process backend contract.

    Parameters
    ----------
    spec:
        The :class:`~repro.api.backends.ServiceSpec` the *server* was
        configured with, or ``None``. The spec never crosses the wire —
        the server owns its backend — but carrying it keeps remote and
        in-process backends interchangeable in code that reads
        ``backend.spec``.
    address:
        The gateway's ``(host, port)``.
    connect_timeout / call_timeout:
        Socket deadlines for connecting and for each request round trip.
        A mesh-served flush barrier can legitimately take a while, so
        the call deadline is generous by default.
    trace:
        Whether to *offer* the ``trace`` feature (on by default — the
        offer is free, and only a tracing-enabled server grants it).
        When granted, request frames carry the sender's current trace
        context so the server links its spans under the caller's.
    """

    name = "remote"

    #: Sends and receives are separate calls, so several requests may
    #: be in flight; their answers come back in send order.
    supports_pipeline = True

    def __init__(
        self,
        spec: ServiceSpec | None = None,
        *,
        address: tuple[str, int],
        connect_timeout: float = 10.0,
        call_timeout: float = 300.0,
        client_name: str = "repro.gateway.remote",
        max_frame_bytes: int = MAX_FRAME_BYTES,
        trace: bool = True,
    ) -> None:
        super().__init__(spec)
        self.address = (str(address[0]), int(address[1]))
        self.connect_timeout = float(connect_timeout)
        self.call_timeout = float(call_timeout)
        self.client_name = str(client_name)
        self.max_frame_bytes = int(max_frame_bytes)
        self.trace = bool(trace)
        self.api_version: int | None = None
        self.session: int | None = None
        self.server_backend: str | None = None
        self.server_features: tuple[str, ...] = ()
        self.bytes_sent = 0
        self.bytes_received = 0
        self._sock: socket.socket | None = None
        self._outstanding = 0

    @property
    def supports_trace(self) -> bool:
        """Whether this session negotiated trace-context propagation."""
        return TRACE_FEATURE in self.server_features

    # ------------------------------------------------------------------ #
    # lifecycle                                                           #
    # ------------------------------------------------------------------ #

    def _open(self) -> None:
        try:
            self._sock = socket.create_connection(
                self.address, timeout=self.connect_timeout
            )
            # request/response framing stalls badly under Nagle: the last
            # partial segment of every frame waits on the peer's delayed
            # ACK (~40ms) unless small writes go out immediately
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock.settimeout(self.call_timeout)
            self._send_frame(
                handshake_frame(
                    hello_doc(
                        api_versions=range(1, WIRE_VERSION + 1),
                        client=self.client_name,
                        features=(TRACE_FEATURE,) if self.trace else (),
                    ),
                    max_frame_bytes=self.max_frame_bytes,
                )
            )
            doc = decode_payload(self._recv_payload())
            if not is_gateway_doc(doc):
                # the server refused the handshake with a structured error
                response = from_wire(doc)
                if isinstance(response, ErrorInfo):
                    raise error_from_info(response)
                raise BackendUnavailable(
                    f"gateway answered the handshake with {doc.get('kind')!r}"
                )
            (
                self.api_version,
                self.server_backend,
                self.session,
                self.server_features,
            ) = parse_welcome(doc)
        except OSError as exc:
            self._drop()
            raise BackendUnavailable(
                f"cannot reach gateway at {self.address[0]}:{self.address[1]}: {exc}"
            ) from exc
        except Exception:
            # a malformed/version-skewed welcome must not leak the socket
            self._drop()
            raise

    def _close(self) -> None:
        if self._sock is not None:
            try:
                self._send_doc(goodbye_doc("client closing"))
            except OSError:
                pass
            self._drop()

    def _drop(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None
        # a dead socket owes nothing: without this reset, a sync call
        # after a lost pipelined stream would fail the in-flight guard
        # (caller-bug ValidationFailed) instead of the documented
        # retryable BackendUnavailable
        self._outstanding = 0

    # ------------------------------------------------------------------ #
    # dispatch                                                            #
    # ------------------------------------------------------------------ #

    def handle(self, request):
        """One request frame out, one response frame back.

        Overrides the dispatch of :class:`BackendBase` wholesale: every
        request is one frame on the socket (a stream window as rows, a
        flush or report as a document; anything else is
        ``invalid-request`` before a byte is sent), and the server's
        backend serves it (a mesh-served window gets chunked dispatch).

        Once the connection has been lost (reset, drain, frame damage)
        every further call fails with the same retryable
        :class:`BackendUnavailable` — the session's server-side state is
        gone, so "retry" means a fresh ``RemoteBackend``, never a silent
        reconnect that would hide the discontinuity.

        While a pipelined stream still has units in flight the
        connection's next frames belong to *those* units, so a sync
        call would steal one as its own answer; it is refused
        structurally instead (finish or drain the stream first).
        """
        if self._outstanding > 0:
            raise ValidationFailed(
                f"sync call with {self._outstanding} pipelined responses "
                "still in flight; drain the stream before mixing in "
                "request/response calls"
            )
        self.send_request(request)
        return self.recv_response()

    def send_request(self, request) -> None:
        """Put one request frame on the wire without waiting for it.

        Half of the pipelined transport: callers that keep several
        requests in flight owe the socket exactly one
        :meth:`recv_response` per successful send. :meth:`handle` is
        simply a send immediately followed by its receive.
        """
        self._ensure_open()
        if self._sock is None:
            raise BackendUnavailable(
                "gateway connection was lost; open a new RemoteBackend"
            )
        # the thread's current span (the client middleware opens one
        # around each call) crosses the socket as a plain dict; an
        # untraced thread or session sends nothing
        ctx = current_context() if self.supports_trace else None
        trace = ctx.to_dict() if ctx is not None else None
        limit = self.max_frame_bytes
        if type(request) is StreamWindow:
            # a window's columns pack straight into fixed-width rows on
            # every session, the trace context riding their tail
            frame = payload_frame(
                encode_stream_batch(request, trace), max_frame_bytes=limit
            )
        else:
            frame = encode_frame(
                attach_trace(to_wire(request), trace), max_frame_bytes=limit
            )
        try:
            self._send_frame(frame)
        except OSError as exc:
            self._drop()
            raise BackendUnavailable(
                f"gateway connection lost mid-send: {exc}"
            ) from exc
        self._outstanding += 1

    def recv_response(self):
        """Take the next response frame off the wire.

        Responses arrive in the order their requests were sent, so this
        one answers the oldest request in flight; a structured error
        frame re-raises as its
        :class:`~repro.api.errors.ApiError` class and *consumes* the
        response slot — the session itself survives request errors.
        Calling with no request in flight is a caller bug and fails
        structurally instead of blocking on a frame that will never come.
        """
        if self._sock is None:
            raise BackendUnavailable(
                "gateway connection was lost; open a new RemoteBackend"
            )
        if self._outstanding <= 0:
            raise ValidationFailed(
                "recv_response with no request in flight; every receive "
                "must be owed by a prior send_request"
            )
        try:
            payload = self._recv_payload()
        except OSError as exc:
            self._drop()
            raise BackendUnavailable(
                f"gateway connection lost mid-call: {exc}"
            ) from exc
        # the whole frame is off the wire, so its response slot is spent
        # even if the payload fails to decode below: the stream is still
        # aligned on the next frame, which belongs to the next request
        self._outstanding -= 1
        if (
            len(payload) >= 3
            and payload[0] == BIN1_MAGIC
            and payload[2] == STREAM_RESULT_TAG
        ):
            # a window's answer comes back as rows, never as a document
            return decode_stream_result(payload)
        doc = decode_payload(payload, welcomed=True)
        if is_gateway_doc(doc):
            self._drop()
            reason = ""
            if isinstance(doc.get("body"), dict):
                reason = str(doc["body"].get("reason", ""))
            raise BackendUnavailable(
                f"gateway closed the session ({reason or 'no reason given'})"
            )
        response = from_wire(doc)
        if isinstance(response, ErrorInfo):
            raise error_from_info(response)
        return response

    # ------------------------------------------------------------------ #
    # frame IO                                                            #
    # ------------------------------------------------------------------ #

    def _send_doc(self, doc: dict) -> None:
        self._send_frame(
            encode_frame(doc, max_frame_bytes=self.max_frame_bytes)
        )

    def _send_frame(self, frame: bytes) -> None:
        self.bytes_sent += len(frame)
        self._sock.sendall(frame)

    def _recv_payload(self) -> bytes:
        header = self._recv_exact(HEADER.size)
        (length,) = HEADER.unpack(header)
        try:
            check_frame_length(length, max_frame_bytes=self.max_frame_bytes)
        except ValidationFailed as exc:
            # a server that misframes is unusable, not merely wrong
            self._drop()
            raise BackendUnavailable(
                f"gateway sent an invalid frame: {exc}"
            ) from exc
        self.bytes_received += HEADER.size + length
        return self._recv_exact(length)

    def _recv_exact(self, n: int) -> bytes:
        chunks = bytearray()
        while len(chunks) < n:
            chunk = self._sock.recv(n - len(chunks))
            if not chunk:
                raise ConnectionError(
                    f"gateway closed the connection mid-frame "
                    f"({len(chunks)}/{n} bytes)"
                )
            chunks += chunk
        return bytes(chunks)

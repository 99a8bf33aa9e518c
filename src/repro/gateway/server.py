"""The asyncio TCP gateway: many remote clients, one assignment backend.

:class:`GatewayServer` listens on a TCP socket, performs the
:mod:`~repro.gateway.protocol` handshake per connection, and serves
framed :mod:`repro.api` wire documents against any configured backend —
in-process, sharded or mesh — through the same middleware chain the
in-process :class:`~repro.api.client.AssignmentClient` uses. Design
points:

* **one execution order** — every backend call is submitted to the
  :class:`~repro.runtime.PipelineScheduler` as a barrier, so requests
  run one at a time in the order they arrived, which is why assignments
  stay bit-identical to serial replay. A backend may end a request's
  hold early (:func:`~repro.runtime.release_order`): the mesh does once
  a window is journaled, so the next request journals while this
  window's outcomes are in flight;
* **one wire layout per message** — a stream window arrives as rows on
  every session, traced or not (its trace context rides the rows'
  tail), and its :class:`~repro.api.messages.WindowResult` leaves as
  rows (a sync register or submit is a window of one row); a flush or
  report and its answer is a document. Either decodes to a request and
  its trace context before it is dispatched;
* **one answer order** — every session reads ahead up to
  ``max_inflight`` frames and starts each dispatch at once, but writes
  the answers in the order the frames arrived: a frame's answer waits
  for the answer of the frame before it. A client therefore matches
  each answer to its oldest request in flight, pipelined or not;
* **bounded in-flight work** — an :class:`asyncio.Semaphore` caps
  requests queued for the scheduler across all connections (and each
  connection's read-ahead is capped alike); a connection over the cap
  simply isn't read from, so backpressure propagates to the client
  through TCP. An optional server-side
  :class:`~repro.api.middleware.TokenBucket` adds admission control on
  top (rejections travel back as retryable ``rate-limited`` errors);
* **structured failure** — anything a request provokes, from a malformed
  document to a backend exception, is answered as the api ``error`` kind
  with its stable code. Only framing damage (a lying length prefix, an
  undecodable payload, a JSON frame after the welcome) closes the
  connection, because a byte stream behind a broken frame cannot be
  resynchronized;
* **graceful drain** — :meth:`GatewayServer.stop` stops accepting,
  lets every in-flight request finish — every connection gets its
  outstanding responses flushed to it first — then sends ``goodbye``
  and closes the backend last.

:func:`serve_gateway` runs the whole thing on a daemon thread with its
own event loop — the bridge that lets synchronous tests, benchmarks and
examples stand up a loopback gateway in one ``with`` statement.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import socket
import threading
import time
from dataclasses import dataclass, field

from ..api.backends import ServiceSpec, make_backend
from ..api.errors import ApiError, map_exception
from ..api.messages import WindowResult, from_wire, to_wire, wire_trace
from ..api.middleware import (
    ErrorMapper,
    LatencyMetrics,
    RequestValidator,
    TokenBucket,
    build_stack,
)
from ..obs.export import JsonlSink
from ..obs.registry import MetricsRegistry
from ..obs.trace import Tracer, parse_trace_context
from ..runtime import PipelineScheduler
from .codec import decode_stream_batch, encode_stream_result
from .protocol import (
    BIN1_MAGIC,
    HEADER,
    MAX_FRAME_BYTES,
    STREAM_BATCH_TAG,
    TRACE_FEATURE,
    check_frame_length,
    decode_payload,
    encode_frame,
    goodbye_doc,
    handshake_frame,
    is_gateway_doc,
    parse_hello,
    payload_frame,
    welcome_doc,
)

__all__ = ["GatewayConfig", "GatewayServer", "Session", "serve_gateway"]


@dataclass(frozen=True)
class GatewayConfig:
    """Everything needed to stand up a gateway over one backend.

    ``backend``/``backend_kwargs`` name what the gateway serves (any
    :func:`~repro.api.backends.make_backend` kind plus its transport
    knobs — e.g. ``{"n_peers": 4}`` for a mesh). ``rate``/``burst``
    enable server-side token-bucket admission control when ``rate`` is
    set. ``port=0`` binds an ephemeral port, published as
    :attr:`GatewayServer.address` once the listener is up.

    Requests run one at a time in arrival order, and each session's
    answers leave in the order its frames arrived. ``max_inflight``
    bounds scheduled work across all connections *and* each
    connection's read-ahead.

    ``trace`` turns distributed tracing on (off by default — the traced
    path pays span bookkeeping per request): sessions offering the
    ``trace`` feature get it granted, their requests' trace contexts
    are honored, and spans land in ``trace_path`` (JSONL) when set.

    Every session answers the client's JSON hello with a JSON welcome
    and speaks bin1 from then on, in both directions.
    """

    spec: ServiceSpec
    backend: str = "sharded"
    backend_kwargs: dict = field(default_factory=dict)
    host: str = "127.0.0.1"
    port: int = 0
    max_inflight: int = 32
    max_frame_bytes: int = MAX_FRAME_BYTES
    rate: float | None = None
    burst: int = 256
    handshake_timeout: float = 10.0
    drain_timeout: float = 30.0
    trace: bool = False
    trace_path: str | None = None

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise ValueError(
                f"max_inflight must be >= 1, got {self.max_inflight}"
            )
        if self.max_frame_bytes < HEADER.size:
            raise ValueError("max_frame_bytes is too small to frame anything")

    def build_backend(self):
        return make_backend(self.backend, self.spec, **self.backend_kwargs)

    def to_dict(self) -> dict:
        """JSON-ready form (deployment/run-config files).

        ``backend_kwargs`` must hold JSON-pure values for this to round
        trip (the mesh's numeric knobs do; a live ``balancer`` object
        does not and belongs to code-constructed configs only).
        """
        return {
            "spec": self.spec.to_dict(),
            "backend": self.backend,
            "backend_kwargs": dict(self.backend_kwargs),
            "host": self.host,
            "port": self.port,
            "max_inflight": self.max_inflight,
            "max_frame_bytes": self.max_frame_bytes,
            "rate": self.rate,
            "burst": self.burst,
            "handshake_timeout": self.handshake_timeout,
            "drain_timeout": self.drain_timeout,
            "trace": self.trace,
            "trace_path": self.trace_path,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "GatewayConfig":
        data = dict(payload)
        data["spec"] = ServiceSpec.from_dict(data["spec"])
        return cls(**data)


@dataclass
class Session:
    """Per-connection state, created at ``welcome``, dropped at close."""

    id: int
    peer: tuple
    api_version: int = 0
    client: str = ""
    traced: bool = False
    requests: int = 0
    errors: int = 0


class _Disconnect(Exception):
    """The peer went away; ``clean`` is False for a mid-frame cut."""

    def __init__(self, clean: bool) -> None:
        super().__init__("client disconnected")
        self.clean = clean


class GatewayServer:
    """One TCP listener multiplexing remote clients onto one backend.

    Parameters
    ----------
    config:
        The :class:`GatewayConfig`; names the backend to build unless an
        already-constructed ``backend`` is supplied.
    backend:
        An optional prebuilt backend instance (tests hand the server a
        :class:`~repro.api.backends.MeshBackend` they keep a handle
        on for fault injection). The server owns its lifecycle either
        way: ``open()`` on start, ``close()`` on stop.
    middleware:
        Override the server-side chain. The default is validation →
        optional token bucket → latency metrics → error mapping, i.e.
        the same onion an in-process client builds, now applied once at
        the server so every remote client shares one admission budget.
    tracer:
        An optional :class:`~repro.obs.trace.Tracer`. Passing one
        enables tracing regardless of ``config.trace`` (the smoke runs
        share a tracer between the gateway and a mesh coordinator);
        with ``config.trace`` set and no tracer given, the server
        builds its own, sinking to ``config.trace_path`` when set.
    """

    def __init__(
        self, config: GatewayConfig, *, backend=None, middleware=None, tracer=None
    ):
        self.config = config
        self.backend = backend if backend is not None else config.build_backend()
        if tracer is None and config.trace:
            sink = JsonlSink(config.trace_path) if config.trace_path else None
            tracer = Tracer(sink, service="gateway")
        self.tracer = tracer
        self.registry = MetricsRegistry()
        self.metrics = LatencyMetrics(registry=self.registry)
        self.bucket = (
            TokenBucket(config.rate, config.burst)
            if config.rate is not None
            else None
        )
        if middleware is None:
            middleware = [RequestValidator()]
            if self.bucket is not None:
                middleware.append(self.bucket)
            middleware += [self.metrics, ErrorMapper()]
        self._handler = build_stack(self.backend.handle, list(middleware))
        self.sessions: dict[int, Session] = {}
        self.stats = {
            "sessions": 0,
            "frames": 0,
            "responses": 0,
            "errors": 0,
            "truncated": 0,
            "rejected_handshakes": 0,
            "traced_sessions": 0,
            "bytes_in": 0,
            "bytes_out": 0,
        }
        self.address: tuple[str, int] | None = None
        self._session_ids = itertools.count(1)
        self._conn_tasks: set[asyncio.Task] = set()
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._inflight: asyncio.Semaphore | None = None
        self._drain_event: asyncio.Event | None = None
        # the execution core: every request runs as a barrier, in
        # arrival order; the pool holds the running request plus any
        # released mesh windows still awaiting their outcomes
        self._scheduler = PipelineScheduler(name="gateway-backend")
        # live backlog gauge: sampled (not copied) at snapshot time
        self.registry.gauge_fn(
            "runtime.scheduler.key_depth", self._scheduler.key_depths
        )
        self._stopped = False

    # ------------------------------------------------------------------ #
    # lifecycle                                                           #
    # ------------------------------------------------------------------ #

    async def start(self) -> None:
        """Open the backend (HST builds, process spawns) and listen."""
        self._loop = asyncio.get_running_loop()
        self._inflight = asyncio.Semaphore(self.config.max_inflight)
        self._drain_event = asyncio.Event()
        # open() rides the scheduler as a barrier: it runs alone, before
        # any request the scheduler will ever execute
        await asyncio.wrap_future(
            self._scheduler.submit(None, self.backend.open)
        )
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port
        )
        self.address = self._server.sockets[0].getsockname()[:2]

    async def stop(self) -> None:
        """Graceful drain: finish in-flight work, close everything.

        Every connection flushes its outstanding responses before its
        goodbye (see :meth:`_request_loop`). Safe to call whether or
        not :meth:`start` completed — a server whose startup failed (or
        never ran) must still close its backend (a half-opened mesh
        holds worker processes) and reap the scheduler pool.
        """
        if self._stopped:
            return
        self._stopped = True
        if self._drain_event is not None:
            self._drain_event.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            # the closed server still holds _on_connection (and so this
            # gateway) through its protocol factory: dropping it leaves
            # the gateway free for reference counting, no collection
            self._server = None
        tasks = list(self._conn_tasks)
        if tasks:
            done, pending = await asyncio.wait(
                tasks, timeout=self.config.drain_timeout
            )
            for task in pending:
                task.cancel()
            await asyncio.gather(*pending, return_exceptions=True)
        # close() is the final barrier: it waits out whatever stragglers
        # the connection drain abandoned (a mesh window that already
        # released its hold is answered "closed" instead of waited
        # for), then the pool is reaped
        await asyncio.wrap_future(
            self._scheduler.submit(None, self.backend.close)
        )
        self._scheduler.shutdown(wait=True)
        if self.tracer is not None:
            # final metrics snapshot rides the same JSONL stream, then
            # everything is flushed — drain is the durability barrier
            if self.tracer.sink is not None:
                self.tracer.sink.write(self.registry.to_record())
            self.tracer.flush()

    async def serve_forever(self) -> None:
        """Run until cancelled (the ``--serve`` CLI path)."""
        await self.start()
        try:
            await asyncio.Event().wait()
        finally:
            await self.stop()

    # ------------------------------------------------------------------ #
    # connection handling                                                 #
    # ------------------------------------------------------------------ #

    async def _on_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        # mirror the client side: responses must not sit in Nagle's buffer
        # waiting for a delayed ACK on the frame's last partial segment
        conn = writer.get_extra_info("socket")
        if conn is not None:
            with contextlib.suppress(OSError):
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            await self._session(reader, writer)
        except asyncio.CancelledError:
            raise
        except Exception:
            # a broken connection must never take the server down; the
            # stats record that something non-protocol went wrong
            self.stats["errors"] += 1
        finally:
            self._conn_tasks.discard(task)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _session(self, reader, writer) -> None:
        session = Session(
            id=next(self._session_ids),
            peer=tuple(writer.get_extra_info("peername") or ())[:2],
        )
        # -- handshake -------------------------------------------------- #
        try:
            payload = await asyncio.wait_for(
                self._read_frame(reader), self.config.handshake_timeout
            )
            # sniffed: a hello must parse to be *rejected* structured even
            # when a confused peer leads with the wrong codec
            session.api_version, session.client, features = parse_hello(
                decode_payload(payload)
            )
        except (_Disconnect, asyncio.TimeoutError):
            self.stats["rejected_handshakes"] += 1
            return
        except ApiError as exc:
            self.stats["rejected_handshakes"] += 1
            await self._write(writer, to_wire(exc.info()), handshake=True)
            return
        except Exception as exc:
            # whatever a junk hello provokes beyond the parser's own
            # taxonomy still answers a stable structured code, then the
            # connection closes — never a silent drop mid-handshake
            self.stats["rejected_handshakes"] += 1
            await self._write(
                writer, to_wire(map_exception(exc).info()), handshake=True
            )
            return
        # grant only what both sides speak: the feature set shrinks by
        # intersection, never errors on names it does not know
        session.traced = self.tracer is not None and TRACE_FEATURE in features
        granted = (TRACE_FEATURE,) if session.traced else ()
        self.stats["sessions"] += 1
        if session.traced:
            self.stats["traced_sessions"] += 1
        self.sessions[session.id] = session
        # the welcome itself travels as json; every frame after it, in
        # either direction, is bin1
        await self._write(
            writer,
            welcome_doc(
                session.api_version, self.backend.name, session.id, granted
            ),
            handshake=True,
        )
        # -- request loop ----------------------------------------------- #
        drain_wait = asyncio.ensure_future(self._drain_event.wait())
        try:
            await self._request_loop(reader, writer, session, drain_wait)
        finally:
            drain_wait.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await drain_wait
            self.sessions.pop(session.id, None)
            if session.traced and self.tracer is not None:
                # goodbye/drain is a flush point: a traced client that
                # hangs up must find its spans on disk
                self.tracer.flush()

    async def _intake(self, reader, session, drain_wait):
        """Read and decode the next actionable frame, or learn the
        session is over.

        Returns a tagged outcome:

        * ``("request", (request, trace))`` — an api request to dispatch,
          with the trace context dict it carried (a document's ``trace``
          key, a stream window's tail; ``None`` when there is none);
        * ``("reject", error_doc)`` — answer this and keep reading (a
          gateway doc where an api doc belongs, or an api document that
          does not parse to a request);
        * ``("drain", goodbye_doc)`` — the server is draining;
        * ``("close", error_doc | None)`` — end the session, after the
          farewell payload if any (framing damage gets its structured
          answer; disconnects and client goodbyes get silence).
        """
        read = asyncio.ensure_future(self._read_frame(reader))
        await asyncio.wait(
            {read, drain_wait}, return_when=asyncio.FIRST_COMPLETED
        )
        if not read.done():
            read.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await read
            return "drain", goodbye_doc("gateway draining")
        try:
            payload = read.result()
            if (
                len(payload) >= 3
                and payload[0] == BIN1_MAGIC
                and payload[2] == STREAM_BATCH_TAG
            ):
                # a stream window decodes straight to its columns, and
                # its trace context off the rows' tail
                return "request", decode_stream_batch(payload)
            doc = decode_payload(payload, welcomed=True)
        except _Disconnect as exc:
            if not exc.clean:
                self.stats["truncated"] += 1
            return "close", None
        except ApiError as exc:
            # framing damage (malformed rows and a JSON frame after the
            # welcome included): answer with the structured error, then
            # close — the stream cannot be resynchronized
            self.stats["errors"] += 1
            session.errors += 1
            return "close", to_wire(exc.info())
        if is_gateway_doc(doc):
            if doc.get("kind") == "goodbye":
                return "close", None
            self.stats["errors"] += 1
            return "reject", to_wire(
                map_exception(
                    ValueError(
                        "handshake already complete; expected an api document"
                    )
                ).info()
            )
        try:
            return "request", (from_wire(doc), wire_trace(doc))
        except ApiError as exc:
            self.stats["errors"] += 1
            session.errors += 1
            return "reject", to_wire(exc.info())

    async def _request_loop(self, reader, writer, session, drain_wait) -> None:
        """The read-ahead loop every session runs.

        Frames are read as fast as the ``max_inflight`` cap allows, and
        each one's dispatch starts at once (so the scheduler sees them
        in arrival order), but each frame's task writes its answer only
        after the previous frame's task has written: answers leave in
        the order the frames arrived, a rejected frame's answer
        included. On drain (or client goodbye, or framing damage) the
        loop first *flushes every in-flight response*, then closes the
        conversation: a client is never left holding a frame the server
        silently dropped.
        """
        pending: set[asyncio.Task] = set()
        previous: asyncio.Task | None = None  # the newest frame's task
        farewell_doc: dict | None = None

        async def respond(kind: str, payload, before) -> None:
            if kind == "request":
                payload = await self._dispatch(*payload, session)
            if before is not None:
                await asyncio.wait((before,))
            with contextlib.suppress(ConnectionError):
                await self._write(writer, payload)

        try:
            while True:
                if len(pending) >= self.config.max_inflight:
                    # read-ahead cap: stop reading until the oldest answer
                    # is written (TCP pushes back on the client)
                    done, _ = await asyncio.wait(
                        pending, return_when=asyncio.FIRST_COMPLETED
                    )
                    pending.difference_update(done)
                    continue
                kind, payload = await self._intake(reader, session, drain_wait)
                if kind not in ("request", "reject"):
                    # drain or close; the farewell goes out after the flush
                    farewell_doc = payload
                    return
                previous = asyncio.create_task(respond(kind, payload, previous))
                pending.add(previous)
                previous.add_done_callback(pending.discard)
        finally:
            # flush the in-flight answers before any farewell: the drain
            # guarantee ("every accepted frame gets its answer") and the
            # framing-damage answer both depend on this barrier
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
            if farewell_doc is not None:
                with contextlib.suppress(ConnectionError):
                    await self._write(writer, farewell_doc)

    async def _dispatch(self, request, trace, session: Session):
        """Serve one decoded request; returns its response message, or
        the error document it failed with (``_write`` frames either)."""
        # the trace context it carried: malformed → None → untraced.
        # gctx (the gateway.dispatch span) is minted HERE, on the event
        # loop, because span ids must be allocated before the job runs
        # but the loop can't use the thread-local span contextmanager
        # (interleaved tasks would corrupt the restore discipline).
        ctx = parse_trace_context(trace) if session.traced else None
        gctx = ctx.child() if ctx is not None else None
        start_wall = time.time() if gctx is not None else 0.0
        start_perf = time.perf_counter() if gctx is not None else 0.0
        ok = False
        async with self._inflight:
            try:
                # every request is a barrier: one execution order
                if gctx is not None:
                    response = await asyncio.wrap_future(
                        self._scheduler.submit(
                            None,
                            self._traced_job,
                            request,
                            gctx,
                            start_wall,
                            start_perf,
                        )
                    )
                else:
                    response = await asyncio.wrap_future(
                        self._scheduler.submit(None, self._handler, request)
                    )
                ok = True
            except ApiError as exc:
                self.stats["errors"] += 1
                session.errors += 1
                out = to_wire(exc.info())
            except Exception as exc:  # pragma: no cover - ErrorMapper's job
                self.stats["errors"] += 1
                session.errors += 1
                out = to_wire(map_exception(exc).info())
        if ok:
            session.requests += 1
            self.stats["responses"] += 1
            out = response
        if gctx is not None:
            self.tracer.record(
                "gateway.dispatch",
                ctx,
                start_s=start_wall,
                duration_s=time.perf_counter() - start_perf,
                attrs={
                    "kind": type(request).kind,
                    "session": session.id,
                    "ok": ok,
                },
                context=gctx,
            )
        return out

    def _traced_job(self, request, gctx, submit_wall, submit_perf):
        """The traced flavor of a scheduled backend call (pool thread).

        Emits the queue-wait span retroactively (submit → now), then
        runs the handler under a ``scheduler.execute`` span — whose
        context becomes the thread-local current context, which is how
        a mesh backend underneath picks up its parent without
        the Backend interface knowing about tracing.
        """
        kind = type(request).kind
        wait_s = time.perf_counter() - submit_perf
        self.tracer.record(
            "scheduler.queue",
            gctx,
            start_s=submit_wall,
            duration_s=wait_s,
            attrs={"kind": kind},
        )
        with self.tracer.span(
            "scheduler.execute", parent=gctx, attrs={"kind": kind}
        ):
            return self._handler(request)

    # ------------------------------------------------------------------ #
    # frame IO                                                            #
    # ------------------------------------------------------------------ #

    async def _read_frame(self, reader) -> bytes:
        """One inbound frame's payload, its length prefix checked."""
        try:
            header = await reader.readexactly(HEADER.size)
        except (asyncio.IncompleteReadError, ConnectionError) as exc:
            partial = getattr(exc, "partial", b"")
            raise _Disconnect(clean=not partial) from None
        (length,) = HEADER.unpack(header)
        check_frame_length(length, max_frame_bytes=self.config.max_frame_bytes)
        try:
            payload = await reader.readexactly(length)
        except (asyncio.IncompleteReadError, ConnectionError):
            raise _Disconnect(clean=False) from None
        self.stats["frames"] += 1
        self.stats["bytes_in"] += HEADER.size + length
        return payload

    async def _write(self, writer, out, *, handshake: bool = False) -> None:
        """Frame one outbound message: a
        :class:`~repro.api.messages.WindowResult` as rows, any other api
        message as its document, or a document as it is.
        ``handshake`` frames the welcome or a handshake rejection as
        JSON; everything else is bin1."""
        limit = self.config.max_frame_bytes
        frame_doc = handshake_frame if handshake else encode_frame
        try:
            if type(out) is WindowResult:
                frame = payload_frame(
                    encode_stream_result(out), max_frame_bytes=limit
                )
            else:
                doc = out if isinstance(out, dict) else to_wire(out)
                frame = frame_doc(doc, max_frame_bytes=limit)
        except ApiError as exc:
            # an oversize *response* is this request's failure, not the
            # connection's: answer the structured frame-too-large error
            # (tiny, always frames) and keep the session alive — the
            # outbound mirror of check_frame_length on the inbound path
            self.stats["errors"] += 1
            frame = frame_doc(to_wire(exc.info()), max_frame_bytes=limit)
        self.stats["bytes_out"] += len(frame)
        writer.write(frame)
        with contextlib.suppress(ConnectionError):
            await writer.drain()


@contextlib.contextmanager
def serve_gateway(
    config: GatewayConfig | None = None,
    *,
    backend=None,
    server: GatewayServer | None = None,
    tracer=None,
    startup_timeout: float = 120.0,
):
    """Run a gateway on a daemon thread; yields the started server.

    The synchronous world's door into the asyncio gateway: spins up a
    private event loop thread, starts the server (backend open included),
    yields it with :attr:`~GatewayServer.address` resolved, and on exit
    drains and stops it — server teardown survives exceptions in the
    body. Used by the conformance suite, the fault-injection tests, the
    smoke CLI and the throughput benchmark.
    """
    if server is None:
        server = GatewayServer(config, backend=backend, tracer=tracer)
    loop = asyncio.new_event_loop()
    thread = threading.Thread(
        target=_run_loop, args=(loop,), name="repro-gateway", daemon=True
    )
    thread.start()
    try:
        asyncio.run_coroutine_threadsafe(server.start(), loop).result(
            timeout=startup_timeout
        )
        yield server
    finally:
        with contextlib.suppress(Exception):
            asyncio.run_coroutine_threadsafe(server.stop(), loop).result(
                timeout=server.config.drain_timeout + startup_timeout
            )
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10.0)
        loop.close()


def _run_loop(loop: asyncio.AbstractEventLoop) -> None:
    asyncio.set_event_loop(loop)
    loop.run_forever()

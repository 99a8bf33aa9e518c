"""The client facade: one typed surface over every assignment backend.

:class:`AssignmentClient` is what callers (load generators, CLIs,
examples, a future network frontend) program against. It owns:

* the **middleware chain** — requests pass through validation, optional
  admission control and latency metrics, and structured error mapping
  before reaching the backend (see :mod:`repro.api.middleware`);
* the **backend lifecycle** — ``with AssignmentClient(backend) as c:``
  opens the backend (HST builds, process spawns) on entry and closes it
  (reaping mesh worker processes) on exit;
* two **calling modes**:

  - *sync*: :meth:`register_worker` / :meth:`submit_task` /
    :meth:`flush` / :meth:`report` — one request, one response (a
    register or submit leaves as a window of one row);
  - *streaming*: :meth:`stream` — ships each run of up to ``window``
    register/submit requests of an arbitrary request iterable as one
    columnar :class:`~repro.api.messages.StreamWindow` (a ``Flush`` or
    ``GetReport`` ends the run and is sent as itself), and yields
    responses lazily in stream order, built from the caller's own
    requests plus the window's column of outcomes. Over a transport
    that splits send and receive (a gateway connection), ``pipeline=N``
    keeps up to ``N`` units in flight at once: each is sent without
    waiting for the previous answer, and since the gateway answers a
    session's frames in the order they arrived, each answer is checked
    against the oldest unit in flight — so pipelining changes latency,
    never results.
"""

from __future__ import annotations

from collections import deque

from .backends import BackendBase
from .errors import BackendUnavailable, ValidationFailed
from .messages import (
    Flush,
    Flushed,
    GetReport,
    RegisterWorker,
    ReportResult,
    StreamWindow,
    SubmitTask,
    WindowResult,
    verb_runs,
    window_responses,
)
from .middleware import ErrorMapper, RequestValidator, build_stack

__all__ = ["AssignmentClient", "DEFAULT_STREAM_WINDOW", "requests_from_events"]

#: Requests per streaming window; amortizes per-call overhead without
#: unbounded buffering.
DEFAULT_STREAM_WINDOW = 256


#: The barriers a stream may carry, each with the answer it must get.
_BARRIER_ANSWERS = {Flush: Flushed, GetReport: ReportResult}


def _stream_units(requests, window: int):
    """Cut a request stream into ``(unit, run)`` pairs, in stream order.

    Each run of up to ``window`` register/submit requests is one
    :class:`StreamWindow` (``run`` is its requests) whose seq is the
    stream position of its first request; a ``Flush`` or ``GetReport``
    ends the run and is its own unit (``run`` is ``None``), taking one
    position. Anything else fails. Lazy: holds one run at a time.
    """
    seq = 0
    for unit in verb_runs(requests, window):
        if type(unit) is list:
            yield StreamWindow.of(seq, unit), unit
            seq += len(unit)
        elif type(unit) in _BARRIER_ANSWERS:
            yield unit, None
            seq += 1
        else:
            raise ValidationFailed(
                "a stream carries register/submit requests, Flush and "
                f"GetReport, not {unit!r}"
            )


def _responses(unit, run, answer) -> list:
    """The responses to one stream unit, once its answer checks out.

    A barrier's answer must be of its type (``Flushed``,
    ``ReportResult``). A window's answer must carry the window's seq,
    length, row kinds and ids, and one outcome per task row; the
    responses are then built from the client's own requests and that
    column of outcomes.
    """
    if run is None:
        if type(answer) is not _BARRIER_ANSWERS[type(unit)]:
            raise ValidationFailed(
                f"stream answered its {unit.kind} with {_describe(answer)}"
            )
        return [answer]
    if (
        type(answer) is not WindowResult
        or answer.seq != unit.seq
        or list(answer.ids) != list(unit.ids)
        or list(answer.is_task) != list(unit.is_task)
        or len(answer.workers) != sum(unit.is_task)
    ):
        raise ValidationFailed(
            f"stream answered the window at seq {unit.seq} ({len(unit)} "
            f"rows) with {_describe(answer)}"
        )
    return window_responses(run, unit.is_task, answer.workers)


def _describe(answer) -> str:
    seq = getattr(answer, "seq", None)
    return type(answer).__name__ + ("" if seq is None else f" at seq {seq}")


class AssignmentClient:
    """Versioned client for an assignment :class:`~repro.api.backends.Backend`.

    Parameters
    ----------
    backend:
        Any object satisfying the backend contract (``open``/``close``/
        ``handle``).
    middleware:
        Ordered middleware list, outermost first. ``None`` installs the
        default stack — request validation, then error mapping. Pass your
        own list to add admission control or latency metrics; include
        ``RequestValidator()``/``ErrorMapper()`` yourself if you still
        want them (the client does not inject duplicates).
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`. When set, every sync
        call and every streamed window opens a ``client.request`` span;
        a trace-negotiated :class:`~repro.gateway.remote.RemoteBackend`
        underneath sends the span's context with the frame, rooting the
        server's dispatch spans under this client's.
    """

    def __init__(self, backend: BackendBase, middleware=None, *, tracer=None) -> None:
        if middleware is None:
            middleware = [RequestValidator(), ErrorMapper()]
        self.backend = backend
        self.middleware = list(middleware)
        self.tracer = tracer
        self._handler = build_stack(backend.handle, self.middleware)

    # ------------------------------------------------------------------ #
    # lifecycle                                                           #
    # ------------------------------------------------------------------ #

    def open(self) -> "AssignmentClient":
        self.backend.open()
        return self

    def close(self) -> None:
        self.backend.close()

    def __enter__(self) -> "AssignmentClient":
        return self.open()

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # sync mode                                                           #
    # ------------------------------------------------------------------ #

    def call(self, request):
        """Send one request through the middleware chain; returns the
        response or raises a structured :class:`~repro.api.errors.ApiError`.
        A register or submit is sent as a window of one row, its answer
        checked as a stream window's is."""
        if isinstance(request, (RegisterWorker, SubmitTask)):
            window = StreamWindow.of(0, [request])
            (response,) = _responses(window, [request], self._round_trip(window))
            return response
        return self._round_trip(request)

    def _round_trip(self, unit):
        """One unit through the middleware chain, in a ``client.request``
        span when traced; its raw answer."""
        if self.tracer is not None:
            with self.tracer.span("client.request", attrs={"kind": type(unit).kind}):
                return self._handler(unit)
        return self._handler(unit)

    def register_worker(self, worker_id: int, location, *, time: float = 0.0):
        """Register one worker; returns its acknowledgement."""
        return self.call(
            RegisterWorker(worker_id=worker_id, location=location, time=time)
        )

    def submit_task(self, task_id: int, location, *, time: float = 0.0) -> int | None:
        """Submit one task; returns the assigned worker id or ``None``."""
        decision = self.call(SubmitTask(task_id=task_id, location=location, time=time))
        return decision.worker_id

    def flush(self) -> None:
        """Flush buffered worker cohorts on every shard."""
        self.call(Flush())

    def report(self, *, wall_seconds: float = float("nan")):
        """Fetch the aggregated :class:`~repro.service.metrics.ServiceReport`."""
        return self.call(GetReport(wall_seconds=wall_seconds)).report

    # ------------------------------------------------------------------ #
    # streaming mode                                                      #
    # ------------------------------------------------------------------ #

    def stream(
        self, requests, *, window: int = DEFAULT_STREAM_WINDOW, pipeline: int = 1
    ):
        """Replay a request iterable; yields responses in stream order.

        Each run of up to ``window`` register/submit requests ships as
        one columnar :class:`~repro.api.messages.StreamWindow` through
        the middleware chain, so backends see whole windows as columns,
        not single calls; a ``Flush`` or ``GetReport`` ends the run and
        is sent as itself. Each answer is checked against the unit it
        answers (a window's seq, length, row kinds and ids; a barrier's
        response type) before the responses are built from these
        requests and the answer's column of outcomes, and they are
        yielded as each unit completes — the stream needs only
        ``O(window)`` memory.

        ``pipeline`` is the number of units kept in flight; ``1`` (the
        default) is the send-then-wait discipline. Above ``1`` it engages
        the pipelined path when the backend's transport splits send and
        receive (a :class:`~repro.gateway.RemoteBackend`): units go out
        back to back and the stream holds ``O(pipeline x window)``
        memory. On other backends the value is ignored and the stream
        keeps the serial discipline. One semantic difference is inherent
        to pipelining: when a unit fails, the units after it were
        already on the wire and the server executed them even though
        this stream raises at the failure (after yielding every response
        before it).
        """
        window = int(window)
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        depth = int(pipeline)
        if depth < 1:
            raise ValueError(f"pipeline must be >= 1, got {depth}")
        units = _stream_units(requests, window)
        if depth > 1 and getattr(self.backend, "supports_pipeline", False):
            yield from self._stream_pipelined(units, depth)
            return
        for unit, run in units:
            yield from _responses(unit, run, self.call(unit))

    def _stream_pipelined(self, units, depth: int):
        """The in-flight stream loop over a split send/receive transport.

        Every unit still traverses the middleware chain (validation,
        admission, metrics, error mapping) around the transport *send*
        only — with units decoupled from their answers there is no
        single call for response-side middleware to wrap, so latency
        metrics record send cost rather than round trips and
        recv failures surface as raised errors, not middleware failure
        counts (the serial path keeps round-trip semantics). The gateway
        answers in arrival order, so each answer belongs to the oldest
        unit in flight and is checked against it. A unit that fails on
        this side (its request iterable or the send chain raises) comes
        after every unit in flight, so those are answered first, as a
        serial stream would have answered them. On any failure the
        transport's outstanding answers are drained, so the connection
        is not left holding frames a later call would misread as its
        own.
        """
        backend = self.backend
        send = build_stack(self._send_window, self.middleware)
        in_flight: deque = deque()  # (unit, run) sent, oldest first

        def answer_oldest() -> list:
            return _responses(*in_flight.popleft(), backend.recv_response())

        units = iter(units)
        failure = None  # raised once every unit before it is answered
        try:
            while True:
                if len(in_flight) == depth:
                    yield from answer_oldest()
                try:
                    unit, run = next(units)
                    send(unit)
                except StopIteration:
                    break
                except Exception as exc:
                    failure = exc
                    break
                in_flight.append((unit, run))
            while in_flight:
                yield from answer_oldest()
            if failure is not None:
                raise failure
        except BaseException:
            # every outstanding unit still owes the socket one frame; a
            # structured error *is* that frame (consumed — keep going),
            # only a dead transport means the frames will never come
            for _ in range(len(in_flight)):
                try:
                    backend.recv_response()
                except BackendUnavailable:
                    break
                except Exception:
                    continue
            raise

    def _send_window(self, unit) -> None:
        """Innermost handler of the pipelined send chain."""
        if self.tracer is not None:
            # spans only the send (the response arrives out of band),
            # but that is when the transport reads the current context —
            # enough to root the server-side spans under this client
            rows = len(unit) if isinstance(unit, StreamWindow) else 1
            with self.tracer.span(
                "client.request",
                attrs={"kind": type(unit).kind, "items": rows},
            ):
                self.backend.send_request(unit)
            return
        self.backend.send_request(unit)

    # ------------------------------------------------------------------ #
    # convenience                                                         #
    # ------------------------------------------------------------------ #

    def replay_events(
        self, events, *, window: int = DEFAULT_STREAM_WINDOW, pipeline: int = 1
    ):
        """Stream service-layer timed events; yields the responses.

        Accepts :class:`~repro.service.events.WorkerArrival` /
        :class:`~repro.service.events.TaskArrival` iterables and maps
        them onto API requests, preserving timestamps — the bridge from
        the repo's existing event streams onto the versioned API.
        ``window`` and ``pipeline`` pass through to :meth:`stream`.
        """
        yield from self.stream(
            requests_from_events(events), window=window, pipeline=pipeline
        )


def requests_from_events(events):
    """Translate service-layer timed events into API requests lazily."""
    from ..service.events import TaskArrival, WorkerArrival

    for event in events:
        if isinstance(event, WorkerArrival):
            yield RegisterWorker(
                worker_id=event.worker_id,
                location=event.location,
                time=event.time,
            )
        elif isinstance(event, TaskArrival):
            yield SubmitTask(
                task_id=event.task_id,
                location=event.location,
                time=event.time,
            )
        else:
            raise ValidationFailed(f"not a service event: {event!r}")

"""Typed request/response messages and their versioned wire form.

Every interaction with an assignment backend is one of four verbs —
register a worker, submit a task, flush pending cohorts, fetch the
report — plus :class:`StreamWindow`, a stream window of register/submit
events held as columns (answered by a columnar :class:`WindowResult`).
Each message is a frozen dataclass. Past the client a register or
submit exists only as a window's row (a sync call is a window of one
row), so the verbs and their answers are the client's own types; the
barriers, their answers and errors have a dict wire form::

    {"schema": "repro.api", "version": 1, "kind": "get_report",
     "body": {"wall_seconds": 2.5}}

:func:`to_wire`/:func:`from_wire` round-trip every such message;
``from_wire`` checks the schema name and version before touching the
body, so a payload from a future (or foreign) producer fails with a
structured :class:`~repro.api.errors.UnsupportedVersion` instead of a
``KeyError`` deep in a backend. The verbs, a window and their answers
have no document form (a window travels as fixed-width rows,
:mod:`repro.gateway.codec`): ``to_wire`` raises for them and
``from_wire`` refuses their kinds as unknown. The wire form is what a
network frontend puts on the socket; in-process callers normally pass
the dataclasses themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ..service.metrics import ServiceReport, ShardSnapshot
from .errors import UnsupportedVersion, ValidationFailed

__all__ = [
    "WIRE_SCHEMA",
    "WIRE_VERSION",
    "Request",
    "Response",
    "RegisterWorker",
    "SubmitTask",
    "Flush",
    "GetReport",
    "StreamWindow",
    "WorkerRegistered",
    "TaskDecision",
    "Flushed",
    "ReportResult",
    "WindowResult",
    "ErrorInfo",
    "to_wire",
    "from_wire",
    "attach_trace",
    "wire_trace",
    "verb_runs",
    "window_responses",
]

WIRE_SCHEMA = "repro.api"
WIRE_VERSION = 1


def _xy(xy) -> np.ndarray:
    """A window's locations as an ``(n, 2)`` float64 array."""
    xy = np.asarray(xy, dtype=np.float64)
    if xy.ndim == 1 and xy.size == 0:
        return xy.reshape(0, 2)
    if xy.ndim != 2 or xy.shape[1] != 2:
        raise ValidationFailed(
            f"stream window xy must be an (n, 2) array, got shape {xy.shape}"
        )
    return xy


def _point(location) -> tuple[float, float]:
    try:
        x, y = location
    except (TypeError, ValueError):
        raise ValidationFailed(
            f"location must be an (x, y) pair, got {location!r}"
        ) from None
    return (float(x), float(y))


# --------------------------------------------------------------------- #
# requests                                                               #
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class RegisterWorker:
    """A worker coming online at a true location.

    The location crosses only the *client side* of whichever backend
    serves the request; every backend obfuscates before its matcher sees
    anything (same trust boundary as :mod:`repro.crowdsourcing`).
    """

    kind: ClassVar[str] = "register_worker"
    worker_id: int
    location: tuple[float, float]
    time: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "location", _point(self.location))


@dataclass(frozen=True)
class SubmitTask:
    """A task requested at a true location; answered by a :class:`TaskDecision`."""

    kind: ClassVar[str] = "submit_task"
    task_id: int
    location: tuple[float, float]
    time: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "location", _point(self.location))


@dataclass(frozen=True)
class Flush:
    """Push every buffered worker cohort through the obfuscation path."""

    kind: ClassVar[str] = "flush"

    def _body(self) -> dict:
        return {}

    @classmethod
    def _from_body(cls, body: dict) -> "Flush":
        return cls()


@dataclass(frozen=True)
class GetReport:
    """Fetch the aggregated :class:`~repro.service.metrics.ServiceReport`.

    ``wall_seconds`` lets a driver that timed the replay stamp the report
    with the measured wall clock (throughput derives from it); backends
    pass it through untouched.
    """

    kind: ClassVar[str] = "get_report"
    wall_seconds: float = float("nan")

    def _body(self) -> dict:
        return {"wall_seconds": float(self.wall_seconds)}

    @classmethod
    def _from_body(cls, body: dict) -> "GetReport":
        return cls(wall_seconds=float(body.get("wall_seconds", float("nan"))))


@dataclass(frozen=True)
class StreamWindow:
    """A stream window of register/submit events, held as columns.

    Row ``i`` has stream seq ``seq + i``: a task arrival when
    ``is_task[i]`` is true (``ids[i]`` is then its task id), otherwise a
    worker arrival. ``xy`` is an ``(n, 2)`` float64 array of true
    locations; ``is_task``, ``ids`` and ``times`` are sequences of
    length ``n``. Answered by a :class:`WindowResult`.

    The client builds one per window, a sync call's of one row
    (:meth:`of`), and every hop — validation, the bin1 row codec, the
    engine's and the coordinator's ``ingest`` — reads its columns
    directly, so no per-event object exists between the caller's
    requests and the responses built from them (:func:`window_responses`).
    Built in process, ``ids`` and ``times`` are the requests' own objects
    (the matcher keeps and returns the very id objects it is given).
    """

    kind: ClassVar[str] = "stream_window"
    seq: int
    is_task: list
    ids: list
    xy: np.ndarray
    times: list

    def __post_init__(self) -> None:
        object.__setattr__(self, "xy", _xy(self.xy))
        if not len(self.is_task) == len(self.ids) == len(self.times) == len(self.xy):
            raise ValidationFailed(
                f"stream window columns differ in length: is_task "
                f"{len(self.is_task)}, ids {len(self.ids)}, xy "
                f"{len(self.xy)}, times {len(self.times)}"
            )

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other) -> bool:
        if type(other) is not StreamWindow:
            return NotImplemented
        return (
            self.seq == other.seq
            and list(self.is_task) == list(other.is_task)
            and list(self.ids) == list(other.ids)
            and np.array_equal(self.xy, other.xy)
            and list(self.times) == list(other.times)
        )

    @classmethod
    def of(cls, seq: int, verbs) -> "StreamWindow":
        """The window of a run of :class:`RegisterWorker`/:class:`SubmitTask`
        verbs whose first has stream seq ``seq``. Takes the verbs' own
        id and time objects, unconverted: checking them is the
        validator's job, so a bad value fails there, structured."""
        is_task = [isinstance(v, SubmitTask) for v in verbs]
        return cls(
            seq,
            is_task,
            [v.task_id if t else v.worker_id for v, t in zip(verbs, is_task)],
            np.array([v.location for v in verbs], dtype=np.float64),
            [v.time for v in verbs],
        )


# --------------------------------------------------------------------- #
# responses                                                              #
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class WorkerRegistered:
    """Acknowledgement of a :class:`RegisterWorker`."""

    kind: ClassVar[str] = "worker_registered"
    worker_id: int


@dataclass(frozen=True)
class TaskDecision:
    """Outcome of a :class:`SubmitTask`: the assigned worker id, or
    ``None`` when the reachable pool was empty."""

    kind: ClassVar[str] = "task_decision"
    task_id: int
    worker_id: int | None

    @property
    def assigned(self) -> bool:
        return self.worker_id is not None


@dataclass(frozen=True)
class Flushed:
    """Acknowledgement of a :class:`Flush`."""

    kind: ClassVar[str] = "flushed"

    def _body(self) -> dict:
        return {}

    @classmethod
    def _from_body(cls, body: dict) -> "Flushed":
        return cls()


@dataclass(frozen=True)
class ReportResult:
    """A :class:`GetReport` answer carrying the full service report."""

    kind: ClassVar[str] = "report"
    report: ServiceReport

    def _body(self) -> dict:
        return self.report.to_dict()

    @classmethod
    def _from_body(cls, body: dict) -> "ReportResult":
        shards = tuple(
            ShardSnapshot(
                shard_id=row["shard_id"],
                epsilon=float(row["epsilon"]),
                workers_registered=int(row["workers"]),
                cohorts_flushed=int(row["cohorts"]),
                tasks_assigned=int(row["assigned"]),
                tasks_unassigned=int(row["unassigned"]),
                latency_p50_ms=float(row["latency_p50_ms"]),
                latency_p95_ms=float(row["latency_p95_ms"]),
                mean_reported_distance=float(row["mean_reported_distance"]),
                budget_capacity=float(row["budget_capacity"]),
                budget_min_remaining=float(row["budget_min_remaining"]),
                budget_mean_remaining=float(row["budget_mean_remaining"]),
            )
            for row in body["shards"]
        )
        report = ServiceReport(
            shards=shards,
            wall_seconds=float(body["wall_seconds"]),
            sim_duration=float(body["sim_duration"]),
            latency_p50_ms=float(body["latency_p50_ms"]),
            latency_p95_ms=float(body["latency_p95_ms"]),
            mean_reported_distance=float(body["mean_reported_distance"]),
            mean_true_distance=float(body["mean_true_distance"]),
        )
        return cls(report=report)


@dataclass(frozen=True)
class WindowResult:
    """The answer to the :class:`StreamWindow` with the same ``seq``.

    ``is_task`` and ``ids`` echo the window's rows; ``workers`` holds
    each task row's outcome (the assigned worker id, or ``None``), in
    row order, one entry per task row. The per-request responses are
    built by :func:`window_responses` from the caller's own requests.
    """

    kind: ClassVar[str] = "window_result"
    seq: int
    is_task: list
    ids: list
    workers: list

    def __post_init__(self) -> None:
        if len(self.is_task) != len(self.ids):
            raise ValidationFailed(
                f"window result columns differ in length: is_task "
                f"{len(self.is_task)}, ids {len(self.ids)}"
            )

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other) -> bool:
        if type(other) is not WindowResult:
            return NotImplemented
        return (
            self.seq == other.seq
            and list(self.is_task) == list(other.is_task)
            and list(self.ids) == list(other.ids)
            and list(self.workers) == list(other.workers)
        )


def verb_runs(items, limit: int | None = None):
    """Cut requests into serving units, lazily: each run of up to
    ``limit`` (default unbounded) consecutive register/submit verbs as
    one list — a :class:`StreamWindow`'s worth — and every other item
    alone."""
    run: list = []
    for item in items:
        if isinstance(item, (RegisterWorker, SubmitTask)):
            run.append(item)
            if limit is not None and len(run) == limit:
                yield run
                run = []
            continue
        if run:
            yield run
            run = []
        yield item
    if run:
        yield run


def window_responses(verbs, is_task, workers) -> list:
    """Per-verb responses of a window run, from the caller's own verbs:
    :class:`WorkerRegistered` for each worker row and, in row order, a
    :class:`TaskDecision` per task row carrying its ``workers`` entry."""
    outcomes = iter(workers)
    return [
        TaskDecision(v.task_id, next(outcomes)) if t else WorkerRegistered(v.worker_id)
        for v, t in zip(verbs, is_task)
    ]


@dataclass(frozen=True)
class ErrorInfo:
    """A structured failure in transportable form (see :mod:`repro.api.errors`)."""

    kind: ClassVar[str] = "error"
    code: str
    message: str
    retryable: bool = False
    detail: str = ""

    def _body(self) -> dict:
        return {
            "code": str(self.code),
            "message": str(self.message),
            "retryable": bool(self.retryable),
            "detail": str(self.detail),
        }

    @classmethod
    def _from_body(cls, body: dict) -> "ErrorInfo":
        return cls(
            code=str(body["code"]),
            message=str(body["message"]),
            retryable=bool(body.get("retryable", False)),
            detail=str(body.get("detail", "")),
        )


#: Union aliases for signatures; the protocol is duck-typed on ``kind``.
Request = (
    RegisterWorker,
    SubmitTask,
    Flush,
    GetReport,
    StreamWindow,
)
Response = (
    WorkerRegistered,
    TaskDecision,
    Flushed,
    ReportResult,
    WindowResult,
    ErrorInfo,
)

#: The messages with a document form (a register or submit is a row).
_DOCUMENTS = (Flush, GetReport, Flushed, ReportResult, ErrorInfo)
_KINDS = {cls.kind: cls for cls in _DOCUMENTS}


# --------------------------------------------------------------------- #
# wire form                                                              #
# --------------------------------------------------------------------- #


def to_wire(message) -> dict:
    """Serialize an API message to its versioned dict wire form."""
    if type(message) not in _DOCUMENTS:
        raise ValidationFailed(
            f"{type(message).__name__} has no wire document form"
        )
    return {
        "schema": WIRE_SCHEMA,
        "version": WIRE_VERSION,
        "kind": message.kind,
        "body": message._body(),
    }


def from_wire(doc: dict):
    """Parse a wire document back into its message dataclass.

    Schema and version are checked *before* the body is interpreted;
    unknown kinds and missing fields surface as structured errors.
    """
    if not isinstance(doc, dict):
        raise ValidationFailed(f"wire document must be a dict, got {type(doc).__name__}")
    schema = doc.get("schema")
    if schema != WIRE_SCHEMA:
        raise UnsupportedVersion(
            f"foreign wire schema {schema!r} (this runtime speaks {WIRE_SCHEMA!r})"
        )
    version = doc.get("version")
    if not isinstance(version, int) or version < 1 or version > WIRE_VERSION:
        raise UnsupportedVersion(
            f"wire version {version!r} outside supported range 1..{WIRE_VERSION}"
        )
    kind = doc.get("kind")
    # kind may be any JSON value here, including unhashable ones
    cls = _KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValidationFailed(f"unknown message kind {kind!r}")
    body = doc.get("body")
    if not isinstance(body, dict):
        raise ValidationFailed(f"message body must be a dict, got {type(body).__name__}")
    try:
        return cls._from_body(body)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationFailed(
            f"malformed {kind!r} body: {type(exc).__name__}: {exc}"
        ) from exc


def attach_trace(doc: dict, trace: dict | None) -> dict:
    """Attach a trace context dict to a wire document, in place.

    ``from_wire`` ignores unknown top-level keys by design, so the
    ``"trace"`` key is invisible to peers that never negotiated the
    gateway ``trace`` feature — the document stays valid for every
    schema version that exists.
    """
    if trace:
        doc["trace"] = trace
    return doc


def wire_trace(doc) -> dict | None:
    """The trace context dict riding a wire document, if any."""
    if isinstance(doc, dict):
        trace = doc.get("trace")
        if isinstance(trace, dict):
            return trace
    return None

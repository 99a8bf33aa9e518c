"""Typed request/response messages and their versioned wire form.

Every interaction with an assignment backend is one of four verbs —
register a worker, submit a task, flush pending cohorts, fetch the
report — plus two envelopes (:class:`Batch` for request groups,
:class:`StreamEnvelope` for sequence-numbered stream items). Each message
is a frozen dataclass with a dict wire form::

    {"schema": "repro.api", "version": 1, "kind": "submit_task",
     "body": {"task_id": 7, "location": [12.0, 40.5], "time": 3.25}}

:func:`to_wire`/:func:`from_wire` round-trip every message; ``from_wire``
checks the schema name and version before touching the body, so a
payload from a future (or foreign) producer fails with a structured
:class:`~repro.api.errors.UnsupportedVersion` instead of a ``KeyError``
deep in a backend. The wire form is what a network frontend would put on
the socket; in-process callers normally pass the dataclasses themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

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
    "Batch",
    "StreamEnvelope",
    "WorkerRegistered",
    "TaskDecision",
    "Flushed",
    "ReportResult",
    "BatchResult",
    "StreamItemResult",
    "ErrorInfo",
    "to_wire",
    "from_wire",
    "attach_trace",
    "wire_trace",
]

WIRE_SCHEMA = "repro.api"
WIRE_VERSION = 1


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

    def _body(self) -> dict:
        return {
            "worker_id": int(self.worker_id),
            "location": list(self.location),
            "time": float(self.time),
        }

    @classmethod
    def _from_body(cls, body: dict) -> "RegisterWorker":
        return cls(
            worker_id=int(body["worker_id"]),
            location=tuple(body["location"]),
            time=float(body.get("time", 0.0)),
        )


@dataclass(frozen=True)
class SubmitTask:
    """A task requested at a true location; answered by a :class:`TaskDecision`."""

    kind: ClassVar[str] = "submit_task"
    task_id: int
    location: tuple[float, float]
    time: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "location", _point(self.location))

    def _body(self) -> dict:
        return {
            "task_id": int(self.task_id),
            "location": list(self.location),
            "time": float(self.time),
        }

    @classmethod
    def _from_body(cls, body: dict) -> "SubmitTask":
        return cls(
            task_id=int(body["task_id"]),
            location=tuple(body["location"]),
            time=float(body.get("time", 0.0)),
        )


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
class Batch:
    """An ordered group of requests answered by one :class:`BatchResult`.

    Backends may execute a batch more efficiently than the equivalent
    call sequence (the sharded engine and the mesh ingest each
    contiguous register/submit run in one call) but must preserve
    per-item semantics and order.
    """

    kind: ClassVar[str] = "batch"
    items: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", tuple(self.items))

    def _body(self) -> dict:
        return {"items": [to_wire(item) for item in self.items]}

    @classmethod
    def _from_body(cls, body: dict) -> "Batch":
        return cls(items=tuple(from_wire(doc) for doc in body["items"]))


@dataclass(frozen=True)
class StreamEnvelope:
    """One sequence-numbered item of a request stream.

    The streaming client wraps requests in envelopes and matches each
    :class:`StreamItemResult` back by ``seq`` — the hook an out-of-order
    async transport would use; the in-process backends answer in order.
    """

    kind: ClassVar[str] = "envelope"
    seq: int
    item: "Request"

    def _body(self) -> dict:
        return {"seq": int(self.seq), "item": to_wire(self.item)}

    @classmethod
    def _from_body(cls, body: dict) -> "StreamEnvelope":
        return cls(seq=int(body["seq"]), item=from_wire(body["item"]))


# --------------------------------------------------------------------- #
# responses                                                              #
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class WorkerRegistered:
    """Acknowledgement of a :class:`RegisterWorker`."""

    kind: ClassVar[str] = "worker_registered"
    worker_id: int

    def _body(self) -> dict:
        return {"worker_id": int(self.worker_id)}

    @classmethod
    def _from_body(cls, body: dict) -> "WorkerRegistered":
        return cls(worker_id=int(body["worker_id"]))


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

    def _body(self) -> dict:
        return {
            "task_id": int(self.task_id),
            "worker_id": None if self.worker_id is None else int(self.worker_id),
        }

    @classmethod
    def _from_body(cls, body: dict) -> "TaskDecision":
        wid = body["worker_id"]
        return cls(
            task_id=int(body["task_id"]),
            worker_id=None if wid is None else int(wid),
        )


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
class BatchResult:
    """Per-item responses of a :class:`Batch`, in request order."""

    kind: ClassVar[str] = "batch_result"
    items: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", tuple(self.items))

    def _body(self) -> dict:
        return {"items": [to_wire(item) for item in self.items]}

    @classmethod
    def _from_body(cls, body: dict) -> "BatchResult":
        return cls(items=tuple(from_wire(doc) for doc in body["items"]))


@dataclass(frozen=True)
class StreamItemResult:
    """The response to the :class:`StreamEnvelope` with the same ``seq``."""

    kind: ClassVar[str] = "envelope_result"
    seq: int
    item: "Response"

    def _body(self) -> dict:
        return {"seq": int(self.seq), "item": to_wire(self.item)}

    @classmethod
    def _from_body(cls, body: dict) -> "StreamItemResult":
        return cls(seq=int(body["seq"]), item=from_wire(body["item"]))


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
Request = (RegisterWorker, SubmitTask, Flush, GetReport, Batch, StreamEnvelope)
Response = (
    WorkerRegistered,
    TaskDecision,
    Flushed,
    ReportResult,
    BatchResult,
    StreamItemResult,
    ErrorInfo,
)

_KINDS = {cls.kind: cls for cls in (*Request, *Response)}


# --------------------------------------------------------------------- #
# wire form                                                              #
# --------------------------------------------------------------------- #


def to_wire(message) -> dict:
    """Serialize any API message to its versioned dict wire form."""
    body = getattr(message, "_body", None)
    if body is None or type(message).kind not in _KINDS:
        raise ValidationFailed(f"not an API message: {message!r}")
    return {
        "schema": WIRE_SCHEMA,
        "version": WIRE_VERSION,
        "kind": type(message).kind,
        "body": body(),
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

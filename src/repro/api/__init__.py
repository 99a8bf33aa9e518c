"""repro.api — one versioned client API over every assignment backend.

The repo grew three front doors to the paper's single online-assignment
mechanism — :class:`~repro.crowdsourcing.server.MatchingServer`
(per-report calls), :class:`~repro.service.engine.ShardedAssignmentEngine`
(event streams) and :class:`~repro.mesh.coordinator.MeshCoordinator`
(worker processes over sockets) — each with its own registration,
submit and report conventions. This package is the one stable surface
over all of them:

* **messages** — typed request/response dataclasses
  (:class:`RegisterWorker`, :class:`SubmitTask`, :class:`Flush`,
  :class:`GetReport`, columnar stream windows and their results), the
  barriers and their answers with a schema-versioned dict wire form
  (:func:`to_wire`/:func:`from_wire`; a window and its result travel
  as rows, and a register or submit only as a window's row);
* **backends** — a common contract with three adapters
  (:class:`InProcessBackend`, :class:`ShardedBackend`,
  :class:`MeshBackend`) that pass one conformance suite: same spec,
  same stream, bit-identical assignments. Every register or submit
  reaches a backend as a :class:`StreamWindow`, and a backend serves
  requests in the order it is called;
* **client** — the :class:`AssignmentClient` facade with sync and
  iterator-streaming modes (a sync register or submit is a window of
  one row; pipelined stream windows over a gateway connection get
  their answers back in send order) plus context-manager lifecycle;
* **middleware** — a composable chain (request validation, token-bucket
  admission control, per-method latency metrics, structured error
  mapping) between client and backend.

Quick start::

    from repro.api import AssignmentClient, ServiceSpec, make_backend
    from repro.geometry import Box

    spec = ServiceSpec(region=Box.square(200.0), shards=(2, 2), seed=0)
    with AssignmentClient(make_backend("sharded", spec)) as client:
        client.register_worker(0, (10.0, 20.0))
        worker = client.submit_task(0, (12.0, 21.0))
        report = client.report()

CLI::

    python -m repro.api --smoke   # cross-backend parity gate (CI)
"""

from .backends import (
    BACKEND_KINDS,
    Backend,
    BackendBase,
    InProcessBackend,
    MeshBackend,
    ServiceSpec,
    ShardedBackend,
    make_backend,
)
from .client import AssignmentClient, requests_from_events
from .conformance import run_conformance
from .errors import (
    AdmissionRejected,
    ApiError,
    BackendUnavailable,
    InternalError,
    RequestRejected,
    UnsupportedVersion,
    ValidationFailed,
    error_from_info,
)
from .messages import (
    WIRE_SCHEMA,
    WIRE_VERSION,
    ErrorInfo,
    Flush,
    Flushed,
    GetReport,
    RegisterWorker,
    ReportResult,
    StreamWindow,
    SubmitTask,
    TaskDecision,
    WindowResult,
    WorkerRegistered,
    from_wire,
    to_wire,
)
from .middleware import (
    ErrorMapper,
    LatencyMetrics,
    RequestValidator,
    TokenBucket,
    build_stack,
)

__all__ = [
    "AssignmentClient",
    "AdmissionRejected",
    "ApiError",
    "BACKEND_KINDS",
    "Backend",
    "BackendBase",
    "BackendUnavailable",
    "ErrorInfo",
    "ErrorMapper",
    "Flush",
    "Flushed",
    "GetReport",
    "InProcessBackend",
    "InternalError",
    "LatencyMetrics",
    "MeshBackend",
    "RegisterWorker",
    "ReportResult",
    "RequestRejected",
    "RequestValidator",
    "ServiceSpec",
    "ShardedBackend",
    "StreamWindow",
    "SubmitTask",
    "TaskDecision",
    "TokenBucket",
    "UnsupportedVersion",
    "ValidationFailed",
    "WIRE_SCHEMA",
    "WIRE_VERSION",
    "WindowResult",
    "WorkerRegistered",
    "build_stack",
    "error_from_info",
    "from_wire",
    "make_backend",
    "requests_from_events",
    "run_conformance",
    "to_wire",
]

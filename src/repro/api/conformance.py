"""Backend conformance: one suite, every backend, identical answers.

The API's central promise is that a caller can swap backends without the
*assignments* changing: same :class:`~repro.api.backends.ServiceSpec`,
same request stream, bit-identical ``(task, worker)`` decisions and
matching report counters, whether the stream is served by one matcher in
process, a sharded engine, or a mesh of worker processes. This module is
the executable form of that promise — the pytest suite parametrizes over
it and ``python -m repro.api --smoke`` runs it in CI.

Latency quantiles and wall-clock throughput are *excluded* from parity:
they measure the runtime, not the mechanism. Everything the paper's
mechanism determines — who gets assigned to whom, the reported tree
distances, the privacy ledger audit — must agree exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .backends import ServiceSpec, make_backend
from .client import AssignmentClient
from .messages import RegisterWorker, SubmitTask, TaskDecision

__all__ = [
    "BackendRun",
    "ConformanceReport",
    "build_conformance_stream",
    "run_backend",
    "run_remote_backend",
    "run_mesh_failover",
    "check_parity",
    "run_conformance",
]


def build_conformance_stream(
    region,
    n_workers: int = 60,
    n_tasks: int = 45,
    seed: int = 7,
    warm_fraction: float = 0.5,
):
    """A deterministic mixed request stream over ``region``.

    A warm fleet registers at t=0; the rest of the workers interleave
    with the task arrivals, exercising cohort buffering, task-triggered
    flushes and the streaming-registration path on every backend.
    """
    rng = np.random.default_rng(seed)
    w = rng.uniform(
        [region.xmin, region.ymin], [region.xmax, region.ymax], size=(n_workers, 2)
    )
    t = rng.uniform(
        [region.xmin, region.ymin], [region.xmax, region.ymax], size=(n_tasks, 2)
    )
    n_warm = int(round(warm_fraction * n_workers))
    horizon = float(n_tasks)
    worker_times = np.concatenate(
        [np.zeros(n_warm), np.sort(rng.uniform(0.0, horizon, n_workers - n_warm))]
    )
    task_times = np.sort(rng.uniform(0.0, horizon, n_tasks))
    stream = [
        (wt, 0, RegisterWorker(worker_id=i, location=tuple(loc), time=float(wt)))
        for i, (wt, loc) in enumerate(zip(worker_times, w))
    ] + [
        (tt, 1, SubmitTask(task_id=i, location=tuple(loc), time=float(tt)))
        for i, (tt, loc) in enumerate(zip(task_times, t))
    ]
    # workers sort before tasks at equal timestamps, like the event queue
    stream.sort(key=lambda item: (item[0], item[1]))
    return [request for _, _, request in stream]


@dataclass(frozen=True)
class BackendRun:
    """What one backend answered for the conformance stream."""

    name: str
    assignments: tuple
    unassigned: tuple
    report: object


def run_backend(
    backend, requests, *, window: int = 32, pipeline: int = 1, tracer=None
) -> BackendRun:
    """Drive one backend through the stream via a client; collect answers.

    ``pipeline`` windows are kept in flight on transports that split
    send and receive (a gateway connection); in-process backends keep
    serial windows, so the same call drives every matrix cell. ``tracer`` passes through to
    the client: traced runs span every window (the obs smoke asserts the
    resulting cross-process trace while this same loop checks parity).
    """
    with AssignmentClient(backend, tracer=tracer) as client:
        pairs = []
        misses = []
        for response in client.stream(requests, window=window, pipeline=pipeline):
            if isinstance(response, TaskDecision):
                if response.worker_id is None:
                    misses.append(response.task_id)
                else:
                    pairs.append((response.task_id, response.worker_id))
        client.flush()
        report = client.report()
    return BackendRun(
        name=backend.name,
        assignments=tuple(pairs),
        unassigned=tuple(misses),
        report=report,
    )


def run_remote_backend(
    spec: ServiceSpec,
    requests,
    *,
    window: int = 32,
    pipeline: int = 1,
    backend: str = "sharded",
    backend_kwargs: dict | None = None,
) -> BackendRun:
    """Drive the stream through a real loopback gateway socket.

    Stands up an asyncio :class:`~repro.gateway.GatewayServer` over a
    fresh ``backend`` built for ``spec``, connects a
    :class:`~repro.gateway.RemoteBackend`, and runs the exact
    :func:`run_backend` loop the in-process backends get — so the
    parity check covers the full framed wire path: handshake, bin1
    round trips, stream windows as rows, report transport. With
    ``pipeline > 1`` the client keeps that many windows in flight, the
    gateway reads them ahead and answers them in arrival order — the
    matrix then asserts that pipelining changed *nothing*.
    """
    from ..gateway import GatewayConfig, RemoteBackend, serve_gateway

    config = GatewayConfig(
        spec=spec, backend=backend, backend_kwargs=dict(backend_kwargs or {})
    )
    with serve_gateway(config) as server:
        remote = RemoteBackend(spec, address=server.address)
        return run_backend(remote, requests, window=window, pipeline=pipeline)


def run_mesh_failover(
    spec: ServiceSpec,
    requests,
    *,
    n_peers: int = 3,
    kill_index: int = 0,
    kill_after: int | None = None,
    window: int = 16,
    spawn: str = "fork",
    chunk_size: int = 32,
    checkpoint_every: int = 64,
    rebase_every: int = 8,
    balancer=None,
    stats: dict | None = None,
) -> tuple[BackendRun, int]:
    """Drive the stream through a mesh and SIGKILL a worker mid-stream.

    The run must still answer every request and — because recovery is
    checkpoint restore plus bit-deterministic journal replay — stay
    bit-identical to every healthy backend. Returns the run plus the
    coordinator's failover count (callers assert it is >= 1: a kill the
    mesh never noticed proves nothing). ``balancer`` passes through to
    the mesh, so a kill can land after hot-cell splits and migrations.

    A ``stats`` dict, when given, is filled before teardown with the
    checkpoint-chain telemetry of the run — ``max_chain_len``,
    ``delta_checkpoints``, ``base_checkpoints``, ``rebase_total``,
    ``compacted_ops`` — plus the balancer's ``cell_splits`` and
    ``migrations``, so failover legs can assert the recovery really
    composed base+delta chains rather than full snapshots.
    """
    from .backends import MeshBackend

    requests = list(requests)
    if kill_after is None:
        kill_after = len(requests) // 2
    backend = MeshBackend(
        spec,
        n_peers=n_peers,
        spawn=spawn,
        chunk_size=chunk_size,
        checkpoint_every=checkpoint_every,
        rebase_every=rebase_every,
        balancer=balancer,
    )
    pairs: list = []
    misses: list = []
    with AssignmentClient(backend) as client:
        answered = 0
        for response in client.stream(requests, window=window):
            answered += 1
            if isinstance(response, TaskDecision):
                if response.worker_id is None:
                    misses.append(response.task_id)
                else:
                    pairs.append((response.task_id, response.worker_id))
            if answered == kill_after:
                backend.kill_worker(kill_index)
        client.flush()
        report = client.report()
        coord = backend.coordinator
        failovers = coord.failovers
        if stats is not None:
            snap = coord.registry.snapshot()
            counters = snap["counters"]
            hists = snap["histograms"]
            stats["failovers"] = failovers
            stats["max_chain_len"] = snap["gauges"].get(
                "mesh.checkpoint.chain_len", 0
            )
            stats["delta_checkpoints"] = hists.get(
                "mesh.checkpoint.delta_bytes", {}
            ).get("count", 0)
            stats["base_checkpoints"] = hists.get(
                "mesh.checkpoint.snapshot_bytes", {}
            ).get("count", 0)
            stats["rebase_total"] = counters.get(
                "mesh.checkpoint.rebase_total", 0
            )
            stats["compacted_ops"] = counters.get(
                "mesh.journal.compacted_ops", 0
            )
            stats["cell_splits"] = coord.cell_splits
            stats["migrations"] = coord.migrations
    run = BackendRun(
        name="mesh-failover",
        assignments=tuple(pairs),
        unassigned=tuple(misses),
        report=report,
    )
    return run, failovers


def _close(a: float, b: float) -> bool:
    if math.isnan(a) and math.isnan(b):
        return True
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


#: Per-shard counters that must agree exactly across backends.
_EXACT_FIELDS = (
    "workers_registered",
    "cohorts_flushed",
    "tasks_assigned",
    "tasks_unassigned",
)
#: Per-shard float audit values that must agree to float tolerance.
_FLOAT_FIELDS = (
    "epsilon",
    "mean_reported_distance",
    "budget_capacity",
    "budget_min_remaining",
    "budget_mean_remaining",
)


def check_parity(runs: list[BackendRun]) -> list[str]:
    """Compare backend runs pairwise against the first; returns problems."""
    problems: list[str] = []
    if len(runs) < 2:
        return ["need at least two backend runs to compare"]
    ref = runs[0]
    for other in runs[1:]:
        tag = f"{other.name} vs {ref.name}"
        if other.assignments != ref.assignments:
            diff = sum(
                1 for a, b in zip(other.assignments, ref.assignments) if a != b
            ) + abs(len(other.assignments) - len(ref.assignments))
            problems.append(f"{tag}: assignments differ ({diff} positions)")
        if other.unassigned != ref.unassigned:
            problems.append(f"{tag}: unassigned task sets differ")
        problems.extend(_compare_reports(tag, ref.report, other.report))
    return problems


def _compare_reports(tag: str, ref, other) -> list[str]:
    problems = []
    if not _close(ref.sim_duration, other.sim_duration):
        problems.append(
            f"{tag}: sim_duration {other.sim_duration} != {ref.sim_duration}"
        )
    if not _close(ref.mean_reported_distance, other.mean_reported_distance):
        problems.append(
            f"{tag}: mean_reported_distance {other.mean_reported_distance}"
            f" != {ref.mean_reported_distance}"
        )
    a = {s.shard_id: s for s in ref.shards}
    b = {s.shard_id: s for s in other.shards}
    if set(a) != set(b):
        problems.append(f"{tag}: shard sets differ ({sorted(a)} vs {sorted(b)})")
        return problems
    for key in sorted(a):
        for fld in _EXACT_FIELDS:
            va, vb = getattr(a[key], fld), getattr(b[key], fld)
            if va != vb:
                problems.append(f"{tag}: shard {key} {fld} {vb} != {va}")
        for fld in _FLOAT_FIELDS:
            va, vb = getattr(a[key], fld), getattr(b[key], fld)
            if not _close(va, vb):
                problems.append(f"{tag}: shard {key} {fld} {vb} != {va}")
    return problems


@dataclass
class ConformanceReport:
    """Outcome of one conformance run across a set of backends."""

    runs: list[BackendRun] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems and len(self.runs) >= 2

    def summary(self) -> str:
        names = ", ".join(run.name for run in self.runs)
        if self.ok:
            ref = self.runs[0]
            return (
                f"PARITY OK [{names}]: {len(ref.assignments)} assignments, "
                f"{len(ref.unassigned)} unassigned, identical reports"
            )
        lines = [f"PARITY FAILED [{names}]:"] + [f"  - {p}" for p in self.problems]
        return "\n".join(lines)


def run_conformance(
    spec: ServiceSpec,
    backend_kinds=("inprocess", "sharded", "remote", "mesh"),
    *,
    requests=None,
    window: int = 32,
    pipeline: int = 1,
    backend_kwargs: dict | None = None,
) -> ConformanceReport:
    """Run the same stream through each backend kind and check parity.

    ``inprocess`` is silently skipped for non-``(1,1)`` lattices (it has
    no sharded counterpart by construction). ``remote`` runs over a real
    loopback gateway socket (see :func:`run_remote_backend`); its kwargs
    name the *server-side* backend and knobs rather than constructor
    arguments. ``mesh`` spawns real worker processes that dial the
    coordinator over loopback sockets — the full multi-host wire path.
    ``backend_kwargs`` maps any backend kind to its extras (e.g. mesh
    ``n_peers``/``chunk_size``).
    ``pipeline`` applies to every run — only the remote cells actually
    pipeline, everything else is its serial control.
    """
    if requests is None:
        requests = build_conformance_stream(spec.region)
    requests = list(requests)
    backend_kwargs = backend_kwargs or {}
    result = ConformanceReport()
    for kind in backend_kinds:
        if kind == "inprocess" and tuple(spec.shards) != (1, 1):
            continue
        kwargs = dict(backend_kwargs.get(kind, {}))
        if kind == "remote":
            run = run_remote_backend(
                spec, requests, window=window, pipeline=pipeline, **kwargs
            )
        else:
            backend = make_backend(kind, spec, **kwargs)
            run = run_backend(backend, requests, window=window, pipeline=pipeline)
        result.runs.append(run)
    result.problems = check_parity(result.runs)
    return result

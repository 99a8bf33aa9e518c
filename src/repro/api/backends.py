"""The ``Backend`` contract and its three adapters.

A *backend* is anything that can serve stream windows, flushes and
report fetches behind :meth:`BackendBase.handle`. The three adapters
cover every runtime the repo has grown, behind one seeding convention
(:func:`~repro.utils.keyed_shard_seed`) so that, given the same
:class:`ServiceSpec` and the same request stream, all of them produce
**bit-identical assignments** — the property the conformance suite
(:mod:`repro.api.conformance`) asserts:

* :class:`InProcessBackend` — the single-tree reference: one published
  HST over the whole region, a
  :class:`~repro.crowdsourcing.server.MatchingServer` behind the
  client-side mechanism/ledger bundle, no sharding. Simplest, and the
  ground truth the others are checked against;
* :class:`ShardedBackend` — the single-process
  :class:`~repro.service.engine.ShardedAssignmentEngine`; each stream
  window is one engine ingest call on its columns;
* :class:`MeshBackend` — the distributed worker mesh: standalone worker
  processes dialed in over loopback sockets behind a
  :class:`~repro.mesh.coordinator.MeshCoordinator`; each stream window
  is one coordinator ingest call on its columns, and a journaled window
  releases its scheduler hold before it awaits its outcomes.

A stream window (:class:`~repro.api.messages.StreamWindow`) is the
only way a register or submit reaches a backend: it arrives as columns
at :meth:`BackendBase.batch` and is answered as columns
(:class:`~repro.api.messages.WindowResult`). The client sends a single
:class:`~repro.api.messages.RegisterWorker` or
:class:`~repro.api.messages.SubmitTask` as a window of one row, so a
backend never sees a verb and every backend serves one run shape.

Backends are cheap to construct and expensive to ``open()`` (HST builds,
process spawns) — the :class:`~repro.api.client.AssignmentClient` context
manager drives that lifecycle. A fourth adapter lives with its transport
and joins the same conformance matrix:
:class:`~repro.gateway.RemoteBackend` (kind ``"remote"``) speaks the
wire form over a TCP gateway.

**Execution order.** A backend serves requests in the order it is
called. The gateway calls it in arrival order, one request at a time,
as barriers on its :class:`~repro.runtime.PipelineScheduler`; only the
mesh ends a window's hold early (:func:`~repro.runtime.release_order`,
once the window is journaled and its slices are sent), so the next
request may run while that window's outcomes are in flight; the window
then waits once, until each family it touched is acknowledged up to
its mark. Backends need no ordering contract of their own, and
assignments stay bit-identical to serial replay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..geometry.box import Box
from ..runtime import release_order
from ..service.metrics import build_report
from ..service.sharding import ShardMap
from ..utils import keyed_shard_seed
from .errors import BackendUnavailable, ValidationFailed
from .messages import (
    Flush,
    Flushed,
    GetReport,
    ReportResult,
    StreamWindow,
    WindowResult,
)

__all__ = [
    "ServiceSpec",
    "Backend",
    "BackendBase",
    "InProcessBackend",
    "ShardedBackend",
    "MeshBackend",
    "BACKEND_KINDS",
    "make_backend",
]


@dataclass(frozen=True)
class ServiceSpec:
    """Everything needed to stand up an assignment service, backend-agnostic.

    One spec drives every backend (the mesh adds transport knobs of its
    own); given equal specs and equal input they serve equal
    assignments.
    """

    region: Box
    shards: tuple[int, int] = (1, 1)
    grid_nx: int = 12
    epsilon: float = 0.5
    budget_capacity: float = 2.0
    batch_size: int = 256
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "shards", tuple(self.shards))
        if len(self.shards) != 2 or min(self.shards) < 1:
            raise ValueError(f"shards must be (nx, ny) >= (1, 1), got {self.shards}")
        if self.grid_nx < 1:
            raise ValueError(f"grid_nx must be >= 1, got {self.grid_nx}")
        # written so a NaN fails: every comparison with NaN is False
        if not 0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if not self.budget_capacity >= self.epsilon:
            raise ValueError(
                "budget_capacity must cover at least one report's epsilon"
            )
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not isinstance(self.seed, int):
            raise ValueError("spec seed must be an int (keyed shard seeding)")

    def to_dict(self) -> dict:
        """JSON-ready form (run-config files, wire transport)."""
        r = self.region
        return {
            "region": [r.xmin, r.ymin, r.xmax, r.ymax],
            "shards": list(self.shards),
            "grid_nx": self.grid_nx,
            "epsilon": self.epsilon,
            "budget_capacity": self.budget_capacity,
            "batch_size": self.batch_size,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ServiceSpec":
        return cls(
            region=Box(*(float(v) for v in payload["region"])),
            shards=tuple(int(v) for v in payload["shards"]),
            grid_nx=int(payload["grid_nx"]),
            epsilon=float(payload["epsilon"]),
            budget_capacity=float(payload["budget_capacity"]),
            batch_size=int(payload["batch_size"]),
            seed=int(payload["seed"]),
        )


class BackendBase:
    """Shared lifecycle + request dispatch for every backend.

    Subclasses implement :meth:`handle_run`, which serves one
    :class:`~repro.api.messages.StreamWindow` from its columns, plus
    ``flush`` and ``get_report``. :meth:`handle` takes a window, a
    :class:`~repro.api.messages.Flush` or a
    :class:`~repro.api.messages.GetReport`, and :meth:`batch` hands
    ``handle_run`` every window. ``open()``/``close()`` bracket the
    expensive state.
    """

    name = "abstract"

    #: Whether the transport can hold several requests in flight
    #: (``send_request``/``recv_response`` split). In-process backends
    #: answer synchronously, so only network transports override this.
    supports_pipeline = False

    def __init__(self, spec: ServiceSpec) -> None:
        self.spec = spec
        self._opened = False
        self._closed = False

    # -- lifecycle ----------------------------------------------------- #

    def open(self) -> None:
        if self._closed:
            raise BackendUnavailable(f"{self.name} backend was closed")
        if not self._opened:
            self._open()
            self._opened = True

    def close(self) -> None:
        if self._opened and not self._closed:
            self._close()
        self._closed = True

    def _open(self) -> None:  # pragma: no cover - trivial default
        pass

    def _close(self) -> None:  # pragma: no cover - trivial default
        pass

    def _ensure_open(self) -> None:
        if self._closed:
            raise BackendUnavailable(f"{self.name} backend was closed")
        if not self._opened:
            self.open()

    # -- dispatch ------------------------------------------------------ #

    def handle(self, request):
        """Serve one window, flush or report request; the single entry
        point middleware wraps."""
        self._ensure_open()
        if isinstance(request, StreamWindow):
            return self.batch(request)
        if isinstance(request, Flush):
            return self.flush(request)
        if isinstance(request, GetReport):
            return self.get_report(request)
        raise ValidationFailed(f"unhandled request type: {request!r}")

    def batch(self, window: StreamWindow) -> WindowResult:
        """Serve a stream window through :meth:`handle_run`, answered by
        a :class:`~repro.api.messages.WindowResult`. A failure raises at
        once: the rows before it stay applied and none after it run."""
        return WindowResult(
            window.seq, window.is_task, window.ids, self.handle_run(window)
        )

    def handle_run(self, window: StreamWindow) -> list:
        """Serve a window's rows in order; each task row's outcome (the
        worker id or ``None``), in row order."""
        raise NotImplementedError


#: The duck-typed contract middleware and the client program against.
Backend = BackendBase


class InProcessBackend(BackendBase):
    """One published HST over the whole region, matched in-process.

    The reference implementation: a
    :class:`~repro.crowdsourcing.server.MatchingServer` running
    Algorithm 4 behind the client-side obfuscation bundle (wrapped as the
    single-region :class:`~repro.service.shard.ShardServer`), with the
    same cohort buffering discipline as the engine. Requires a
    ``(1, 1)`` lattice spec — this backend *is* the unsharded case.

    It keeps its own cohort buffer and id registries on purpose: the engine
    and every mesh worker cut cohorts through the one
    :class:`~repro.cluster.worker.ShardHost`, so this backend is the
    independent oracle for that cut rule in the conformance matrix.
    """

    name = "inprocess"

    def __init__(self, spec: ServiceSpec) -> None:
        if tuple(spec.shards) != (1, 1):
            raise ValueError(
                "InProcessBackend is the single-tree case; it needs "
                f"shards=(1, 1), got {spec.shards}"
            )
        super().__init__(spec)

    def _open(self) -> None:
        from ..service.shard import ShardServer

        spec = self.spec
        # the box goes through the same 1x1 lattice arithmetic as the
        # engine's shard 0, keeping the published trees bit-identical
        box = ShardMap(spec.region, 1, 1).shard_box(0)
        self._shard = ShardServer(
            "s0",
            box,
            grid_nx=spec.grid_nx,
            epsilon=spec.epsilon,
            budget_capacity=spec.budget_capacity,
            seed=keyed_shard_seed(spec.seed, "s0"),
        )
        self._pending: tuple[list[int], list] = ([], [])
        self._known: set[int] = set()
        self._tasks: set[int] = set()
        self.now = 0.0

    def handle_run(self, window: StreamWindow) -> list:
        """The window's rows one at a time, in stream order."""
        workers = []
        for task, ident, location, at in zip(
            window.is_task, window.ids, window.xy.tolist(), window.times
        ):
            if task:
                workers.append(self._submit(ident, location, at))
            else:
                self._register(ident, location, at)
        return workers

    def _register(self, worker_id, location, at) -> None:
        wid = int(worker_id)
        if wid in self._known:
            raise ValueError(f"worker id already registered: {wid}")
        self._known.add(wid)
        self.now = max(self.now, float(at))
        ids, locs = self._pending
        ids.append(wid)
        locs.append(location)
        if len(ids) >= self.spec.batch_size:
            self._flush_pending()

    def _flush_pending(self) -> None:
        ids, locs = self._pending
        if not ids:
            return
        self._pending = ([], [])
        self._shard.register_cohort(ids, locs)

    def _submit(self, task_id, location, at) -> int | None:
        tid = int(task_id)
        if tid in self._tasks:
            raise ValueError(f"task id already submitted: {tid}")
        self._tasks.add(tid)
        self.now = max(self.now, float(at))
        self._flush_pending()
        return self._shard.submit_task(tid, location)

    def flush(self, req: Flush) -> Flushed:
        self._flush_pending()
        return Flushed()

    def get_report(self, req: GetReport) -> ReportResult:
        self._flush_pending()
        report = build_report(
            [self._shard.report_row()],
            wall_seconds=req.wall_seconds,
            sim_duration=self.now,
        )
        return ReportResult(report=report)


class ShardedBackend(BackendBase):
    """The single-process sharded engine behind the API contract.

    Routing is per window, not per event: :meth:`handle_run` passes a
    stream window's columns to one
    :meth:`~repro.service.engine.ShardedAssignmentEngine.ingest` call —
    one vectorized routing pass for the window. The engine applies the
    rows in stream order under the per-event cut-point rule, so a
    window's decisions, reports and failures are exactly those of one
    call per request.
    """

    name = "sharded"

    def _open(self) -> None:
        from ..service.engine import ShardedAssignmentEngine

        spec = self.spec
        self.engine = ShardedAssignmentEngine(
            spec.region,
            shards=spec.shards,
            grid_nx=spec.grid_nx,
            epsilon=spec.epsilon,
            budget_capacity=spec.budget_capacity,
            batch_size=spec.batch_size,
            seed=spec.seed,
        )

    def handle_run(self, window: StreamWindow) -> list:
        """One :meth:`~repro.service.engine.ShardedAssignmentEngine.ingest`
        call for the whole window: one routing pass, stream-order cut
        points."""
        return self.engine.ingest(window.ids, window.xy, window.is_task, window.times)

    def flush(self, req: Flush) -> Flushed:
        self.engine.flush()
        return Flushed()

    def get_report(self, req: GetReport) -> ReportResult:
        return ReportResult(report=self.engine.report(wall_seconds=req.wall_seconds))


class MeshBackend(BackendBase):
    """The multi-host worker mesh behind the API contract.

    Workers are standalone processes that dial the coordinator over
    loopback TCP (``spawn="fork"`` forks them in-repo; ``spawn="cli"``
    launches real ``python -m repro.mesh --worker`` processes — the
    deployment shape). Knobs beyond the spec are transport-level only:
    they shift *where* work runs, never *what* gets assigned, so the
    mesh serves bit-identical assignments to every other backend.

    ``balancer`` (a :class:`~repro.cluster.balancer.BalancerConfig`)
    lets the coordinator split hot cells and migrate hot families
    between peers. A migration only moves shards; a split re-lattices a
    cell, so a balanced run matches other balanced runs of the same
    stream (any peer count, checkpoint cadence or failover), not an
    unbalanced one.

    There is no backend-side lock: the mesh coordinator is internally
    thread-safe. The thread that journals a window sends each touched
    shard family's slice itself (families are base lattice cells,
    stable across hot-cell splits), without waiting for the reply, so
    several slices of one family may be in flight and only its flush
    and report quiesce the mesh. Every register/submit goes through
    :meth:`batch` (a sync call arrives as a window of one row), which
    journals a window as columns and then releases the caller's
    scheduler hold (:func:`~repro.runtime.release_order`) before it
    waits, once, for the window's outcomes: behind a gateway the next
    request journals while this window's outcomes are in flight.
    """

    name = "mesh"

    def __init__(
        self,
        spec: ServiceSpec,
        *,
        n_peers: int = 2,
        chunk_size: int = 256,
        checkpoint_every: int = 8192,
        rebase_every: int = 8,
        balancer=None,
        spawn: str = "fork",
        host: str = "127.0.0.1",
        port: int = 0,
        tracer=None,
    ) -> None:
        super().__init__(spec)
        if spawn not in ("fork", "cli"):
            raise ValueError(f"spawn must be 'fork' or 'cli', got {spawn!r}")
        self.tracer = tracer
        self.n_peers = int(n_peers)
        self.chunk_size = int(chunk_size)
        self.checkpoint_every = int(checkpoint_every)
        self.rebase_every = int(rebase_every)
        self.balancer = balancer
        self.spawn = spawn
        self.host = host
        self.port = int(port)
        self.workers: list = []

    def _open(self) -> None:
        from ..mesh.coordinator import MeshCoordinator
        from ..mesh.worker import spawn_cli_worker, spawn_local_worker

        spec = self.spec
        self.coordinator = MeshCoordinator(
            spec.region,
            shards=spec.shards,
            expected_workers=self.n_peers,
            grid_nx=spec.grid_nx,
            epsilon=spec.epsilon,
            budget_capacity=spec.budget_capacity,
            batch_size=spec.batch_size,
            chunk_size=self.chunk_size,
            checkpoint_every=self.checkpoint_every,
            rebase_every=self.rebase_every,
            balancer=self.balancer,
            seed=spec.seed,
            host=self.host,
            port=self.port,
            tracer=self.tracer,
        )
        self.workers = []
        try:
            address = self.coordinator.listen()
            spawner = spawn_cli_worker if self.spawn == "cli" else spawn_local_worker
            for i in range(self.n_peers):
                self.workers.append(spawner(address, name=f"mesh-w{i}"))
            self.coordinator.start()
        except BaseException:
            # close() only tears down what a finished open() built; a
            # half-open mesh would leak its listener, threads and workers
            self._close()
            raise

    def _close(self) -> None:
        self.coordinator.close()
        for proc in self.workers:
            self._reap(proc)
        self.workers = []

    @staticmethod
    def _reap(proc) -> None:
        # both worker shapes answer this: multiprocessing.Process
        # (is_alive/join) and subprocess.Popen (poll/wait)
        if hasattr(proc, "is_alive"):
            if proc.is_alive():
                proc.terminate()
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=5.0)
        else:
            if proc.poll() is None:
                proc.terminate()
            try:
                proc.wait(timeout=5.0)
            except Exception:
                proc.kill()
                proc.wait(timeout=5.0)

    def kill_worker(self, index: int) -> None:
        """SIGKILL one worker process mid-stream (failover testing)."""
        import os
        import signal

        try:
            os.kill(self.workers[index].pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def flush(self, req: Flush) -> Flushed:
        self.coordinator.flush()
        return Flushed()

    def get_report(self, req: GetReport) -> ReportResult:
        return ReportResult(
            report=self.coordinator.report(wall_seconds=req.wall_seconds)
        )

    def batch(self, window: StreamWindow) -> WindowResult:
        """Journal the window as columns, release its hold, await outcomes.

        The window is one
        :meth:`~repro.mesh.coordinator.MeshCoordinator.ingest` call on its
        columns, which journals it, sends it and returns its marks. Once
        it is journaled its place in every family's journal is fixed, so
        :func:`~repro.runtime.release_order` ends the caller's scheduler
        hold: a gateway journals the next window while this one's
        outcomes are in flight. Only then does it wait, once, until every
        family the window touched is acknowledged up to its mark
        (:meth:`~repro.mesh.coordinator.MeshCoordinator.result_of`, on a
        condition the peer readers signal). A failure while journaling
        raises before the release (a refused row once the rows before it
        are answered), so later windows still wait for it.
        """
        coordinator = self.coordinator
        marks = coordinator.ingest(window.ids, window.xy, window.is_task, window.times)
        release_order()
        tasks = [i for i, t in zip(window.ids, window.is_task) if t]
        return WindowResult(
            window.seq, window.is_task, window.ids, coordinator.result_of(marks, tasks)
        )


BACKEND_KINDS = ("inprocess", "sharded", "remote", "mesh")


def make_backend(kind: str, spec: ServiceSpec, **kwargs) -> BackendBase:
    """Construct a backend by kind name.

    ``kwargs`` are forwarded to the backend constructor: the mesh takes
    ``n_peers``/``chunk_size``/``checkpoint_every``/``balancer``/
    ``spawn``, ``remote`` requires ``address=(host, port)`` of a running
    :class:`~repro.gateway.GatewayServer` (plus optional timeouts); the
    others take none.
    """
    if kind == "inprocess":
        return InProcessBackend(spec, **kwargs)
    if kind == "sharded":
        return ShardedBackend(spec, **kwargs)
    if kind == "mesh":
        return MeshBackend(spec, **kwargs)
    if kind == "remote":
        from ..gateway.remote import RemoteBackend

        return RemoteBackend(spec, **kwargs)
    raise ValueError(f"unknown backend kind {kind!r}; expected one of {BACKEND_KINDS}")

"""The workloads, their passes and the correctness gate.

Every workload is a closed loop over one client connection, driven by the
public :mod:`repro.api` client. A *pass* sets up a fresh service (timed
as set-up), replays the whole seeded request stream (timed as serving),
and is then checked against a serial in-process ``sharded`` replay of
the same stream, computed once per run outside any timed window.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.api import (
    ApiError,
    AssignmentClient,
    SubmitTask,
    TaskDecision,
    make_backend,
    requests_from_events,
)
from repro.gateway import RemoteBackend
from repro.service import LoadConfig, LoadGenerator

from .ledger import Ledger, install_client_layers, install_kernel_layers

__all__ = [
    "WORKLOADS",
    "GatewayChild",
    "HostClock",
    "Workload",
    "build_plan",
    "check_pass",
    "engine_pass",
    "gateway_pass",
    "mismatch_count",
    "reference_apart",
    "reference_decisions",
    "stream_requests",
]

CHILD = Path(__file__).resolve().parent / "gateway_child.py"
CHILD_EXIT_TIMEOUT_S = 120.0

#: Iterations of the host-speed probe kernel, and the probe's time on the
#: reference host (6.67 us an iteration); timings are reported scaled to it.
PROBE_ITERATIONS = 200
PROBE_REF_S = PROBE_ITERATIONS * 6.67e-6
_PROBE_POINTS = np.linspace(0.0, 1.0, 128).reshape(64, 2)
#: A pipelined stream is drained, and the host probed, every this many
#: windows: often enough to follow the host's speed, seldom enough that
#: the drains cost little of the pipelining.
DRAIN_EVERY_WINDOWS = 4


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a load config plus how it is served.

    ``backend="sharded"`` serves in this process; any other kind is
    served by a gateway in a child process.
    """

    name: str
    config: LoadConfig
    window: int
    depth: int = 1
    backend: str = "sharded"
    backend_kwargs: dict = field(default_factory=dict)

    @property
    def in_process(self) -> bool:
        return self.backend == "sharded"

    def scaled(self, factor: float) -> "Workload":
        """The same workload with ``factor`` times the workers and tasks."""
        cfg = self.config
        return replace(
            self,
            config=replace(
                cfg,
                n_workers=max(8, int(cfg.n_workers * factor)),
                n_tasks=max(4, int(cfg.n_tasks * factor)),
            ),
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="engine-bulk",
            config=LoadConfig(
                workload="gaussian",
                n_workers=10000,
                n_tasks=5000,
                shards=(2, 2),
                grid_nx=16,
            ),
            window=512,
        ),
        Workload(
            name="mesh-stream",
            config=LoadConfig(
                workload="taxi",
                n_workers=10000,
                n_tasks=4598,
                shards=(2, 2),
                grid_nx=12,
                taxi_day=0,
            ),
            window=256,
            depth=2,
            backend="mesh",
            backend_kwargs={"n_peers": 2, "checkpoint_every": 2048},
        ),
    )
}


# ---------------------------------------------------------------------- #
# plans and the correctness gate                                           #
# ---------------------------------------------------------------------- #


@dataclass
class Plan:
    """A workload's seeded inputs: spec, request stream and its counts."""

    workload: Workload
    config: LoadConfig
    spec: object
    requests: list
    n_tasks: int
    n_workers: int


def build_plan(workload: Workload, seed: int) -> Plan:
    config = replace(workload.config, seed=int(seed))
    generator = LoadGenerator(config)
    region, events, workers, tasks = generator.build_events()
    return Plan(
        workload=workload,
        config=config,
        spec=generator.service_spec(region),
        requests=list(requests_from_events(events)),
        n_tasks=len(tasks),
        n_workers=len(workers),
    )


def reference_decisions(plan: Plan) -> list[tuple[int, int | None]]:
    """Serial in-process ``sharded`` replay: one sync call per request."""
    with AssignmentClient(make_backend("sharded", plan.spec)) as client:
        decisions = []
        for request in plan.requests:
            response = client.call(request)
            if isinstance(response, TaskDecision):
                decisions.append((response.task_id, response.worker_id))
        return decisions


def reference_apart(plan: Plan) -> list[tuple[int, int | None]]:
    """:func:`reference_decisions` computed in a forked process, so the
    reference's memory never counts toward this process's peak RSS."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as out:
                pickle.dump(reference_decisions(plan), out)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as inp:
        data = inp.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"reference process failed (wait status {status})")
    return pickle.loads(data)


def check_pass(plan: Plan, reference, decisions, report) -> list[str]:
    """Everything wrong with one pass's outcome (empty when correct).

    Decisions must equal the serial reference pair for pair, every task
    must be answered exactly once, and no shard's ledger may show a
    worker charged beyond ``budget_capacity``.
    """
    problems = []
    seen = [task for task, _ in decisions]
    if len(set(seen)) != len(seen):
        problems.append("a task was answered more than once")
    if len(decisions) != plan.n_tasks:
        problems.append(f"{len(decisions)} of {plan.n_tasks} tasks answered")
    mismatched = sum(1 for a, b in zip(decisions, reference) if a != b)
    if mismatched:
        problems.append(f"{mismatched} decisions differ from the serial replay")
    if report is None:
        problems.append("no report")
        return problems
    if report.tasks_total != plan.n_tasks:
        problems.append(f"report shows {report.tasks_total} tasks")
    if report.workers_registered != plan.n_workers:
        problems.append(f"report shows {report.workers_registered} workers")
    for shard in report.shards:
        if shard.budget_min_remaining < -1e-9:
            problems.append(f"shard {shard.shard_id} over-spent a worker budget")
        if shard.budget_capacity != plan.config.budget_capacity:
            problems.append(f"shard {shard.shard_id} has the wrong capacity")
    return problems


def mismatch_count(reference, decisions) -> int:
    """Answered decisions that differ from the reference (unanswered
    requests are counted by the pass itself)."""
    wrong = sum(1 for a, b in zip(decisions, reference) if a != b)
    return wrong + max(0, len(decisions) - len(reference))


# ---------------------------------------------------------------------- #
# passes                                                                   #
# ---------------------------------------------------------------------- #


def probe_s() -> float:
    """Best of two runs of a fixed kernel with the program's instruction
    mix (small numpy calls between dict and list work), in seconds."""
    best = float("inf")
    for _ in range(2):
        table = {}
        start = perf_counter()
        for i in range(PROBE_ITERATIONS):
            cells = np.floor(_PROBE_POINTS * 16 + 0.5).astype(np.intp)
            table[i % 97] = int(cells[:, 0].sum())
            _ = [x * 2 for x in range(20)]
        best = min(best, perf_counter() - start)
    return best


class HostClock:
    """Wall time rescaled to the reference host's speed.

    A shared 2-vCPU VM changes speed by up to 1.7x from one second to the
    next, and its two CPUs need not run at the same speed at once, so raw
    times measure the neighbours as much as the program. The clock probes
    the host between stretches of work; a stretch is scaled by
    ``PROBE_REF_S`` over the mean of the probes that bound it. Time spent
    probing belongs to no stretch. A service of one process runs on the
    CPU its probe runs on; one spread over several processes is probed
    on every CPU it may use (``all_cpus``), and the mean is taken.
    """

    def __init__(self, all_cpus: bool = False) -> None:
        self.all_cpus = all_cpus
        self.marks: list[tuple[float, float, float]] = []

    def probe(self) -> None:
        start = perf_counter()
        if self.all_cpus:
            home = os.sched_getaffinity(0)
            took = []
            try:
                for cpu in sorted(home):
                    os.sched_setaffinity(0, {cpu})
                    took.append(probe_s())
            finally:
                os.sched_setaffinity(0, home)
            took = sum(took) / len(took)
        else:
            took = probe_s()
        self.marks.append((start, perf_counter(), took))

    def stretches(self):
        """``(start, end, scale)`` of every stretch between two probes."""
        for (_, lo, a), (hi, _, b) in zip(self.marks, self.marks[1:]):
            yield lo, hi, 2 * PROBE_REF_S / (a + b)

    def span(self, t0: float, t1: float, *, scaled: bool = True) -> float:
        """Length of ``[t0, t1]`` without probes, scaled unless asked not."""
        total = 0.0
        for lo, hi, scale in self.stretches():
            overlap = min(t1, hi) - max(t0, lo)
            if overlap > 0:
                total += overlap * (scale if scaled else 1.0)
        return total

    def scaled_ms(self, begins, ends) -> list:
        """Scaled lengths in ms of intervals that each lie in one stretch."""
        stretches = list(self.stretches())
        bounds = np.array([hi for _, hi, _ in stretches])
        scales = np.array([scale for _, _, scale in stretches])
        ends = np.asarray(ends, dtype=np.float64)
        which = np.minimum(np.searchsorted(bounds, ends), len(scales) - 1)
        return ((ends - np.asarray(begins)) * scales[which] * 1e3).tolist()


@dataclass
class PassResult:
    """One pass's outcome; every time in it is scaled to the reference host
    except ``raw_wall_s``."""

    setup_s: float
    wall_s: float
    raw_wall_s: float
    attempted: int
    decisions: list
    task_ms: list
    window_ms: list
    errors: dict
    settle_s: list
    report: object = None
    ledger: dict | None = None
    child: dict | None = None
    client_bytes: tuple[int, int] = (0, 0)

    @property
    def throughput(self) -> float:
        return len(self.decisions) / self.wall_s

    @property
    def raw_throughput(self) -> float:
        return len(self.decisions) / self.raw_wall_s


def stream_requests(
    client, requests, window: int, depth: int, clock: HostClock, settle=None
) -> dict:
    """Stream ``requests`` in windows and time every one of them.

    A request's latency runs from when the client pulls it off the
    generator to when its response is yielded; a window's latency is that
    of its last request. The host is probed only when nothing is in
    flight, so a probe never competes with the service for a CPU: a
    serial stream (``depth == 1``) is probed before every window, and a
    pipelined one is sent as streams of ``DRAIN_EVERY_WINDOWS`` windows,
    each drained before the probe and the next. A service in other
    processes can still be busy after its last answer (a mesh runs its
    checkpoint barriers and worker registrations behind the answers), so
    every stream ends in ``settle()``, when given, which returns once the
    service is idle; the wait is serving time. A structured error ends
    the replay; the requests it left unanswered count as failed, under
    the error's code.
    """
    n = len(requests)
    pulled = [0.0] * n
    done = [0.0] * n
    chunk = window if depth == 1 else window * DRAIN_EVERY_WINDOWS

    def source(lo):
        for i in range(lo, min(lo + chunk, n)):
            pulled[i] = perf_counter()
            yield requests[i]

    decisions = []
    errors = {}
    answered = 0
    settle_s = []
    start = perf_counter()
    try:
        for lo in range(0, n, chunk):
            clock.probe()
            stream = client.stream(source(lo), window=window, pipeline=depth)
            for i, response in enumerate(stream, lo):
                done[i] = perf_counter()
                answered = i + 1
                if type(response) is TaskDecision:
                    decisions.append((response.task_id, response.worker_id))
            if settle is not None:
                began = perf_counter()
                settle()
                settle_s.append(perf_counter() - began)
    except ApiError as exc:
        print(f"perfbench: stream stopped by {exc!r}", file=sys.stderr)
        errors[exc.code] = n - answered
    end = perf_counter()
    clock.probe()
    tasks = [i for i in range(answered) if type(requests[i]) is SubmitTask]
    lasts = list(range(window - 1, n, window))
    if n % window:
        lasts.append(n - 1)
    lasts = [j for j in lasts if j < answered]
    return {
        "wall_s": clock.span(start, end),
        "raw_wall_s": clock.span(start, end, scaled=False),
        "attempted": n,
        "errors": errors,
        "settle_s": settle_s,
        "decisions": decisions,
        "task_ms": clock.scaled_ms([pulled[i] for i in tasks], [done[i] for i in tasks]),
        "window_ms": clock.scaled_ms([pulled[j] for j in lasts], [done[j] for j in lasts]),
    }


def engine_pass(plan: Plan, traced: bool) -> PassResult:
    """The sharded backend inside this process."""
    wl = plan.workload
    clock = HostClock()
    clock.probe()
    start = perf_counter()
    client = AssignmentClient(make_backend("sharded", plan.spec)).open()
    setup_end = perf_counter()
    ledger = Ledger() if traced else None
    try:
        if ledger is not None:
            install_kernel_layers(ledger)
        try:
            replay = stream_requests(client, plan.requests, wl.window, wl.depth, clock)
        finally:
            if ledger is not None:
                ledger.uninstall()
        report = client.report()
    finally:
        client.close()
    return PassResult(
        setup_s=clock.span(start, setup_end),
        report=report,
        ledger=ledger.export() if ledger else None,
        **replay,
    )


class GatewayChild:
    """The gateway process of one run, spoken to in JSON lines."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(CHILD)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=str(CHILD.parent.parent),
        )

    def request(self, **msg) -> dict:
        self.proc.stdin.write(json.dumps(msg) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("gateway process ended unexpectedly")
        reply = json.loads(line)
        if "error" in reply:
            raise RuntimeError(f"gateway process: {reply['error']}")
        return reply

    def settle(self) -> None:
        """Return once the gateway's backend has no work left in flight."""
        self.request(op="settle")

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write(json.dumps({"op": "exit"}) + "\n")
                self.proc.stdin.flush()
            except OSError:
                pass
        try:
            self.proc.wait(timeout=CHILD_EXIT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            pipe.close()


def gateway_pass(plan: Plan, traced: bool, child: GatewayChild) -> PassResult:
    """A fresh gateway in the child process, streamed to over bin1.

    Set-up covers gateway start (backend open: HST builds, mesh peer
    spawn and handshakes), the client's connect and handshake, and one
    flush round trip through every peer.
    """
    wl = plan.workload
    clock = HostClock(all_cpus=True)
    clock.probe()
    start = perf_counter()
    reply = child.request(
        op="start",
        spec=plan.spec.to_dict(),
        backend=wl.backend,
        backend_kwargs=wl.backend_kwargs,
        trace=traced,
    )
    backend = RemoteBackend(
        plan.spec, address=tuple(reply["address"]), call_timeout=60.0, trace=False
    )
    client = AssignmentClient(backend)
    ledger = Ledger() if traced else None
    try:
        client.open()
        client.flush()
        setup_end = perf_counter()
        settle = child.settle
        if ledger is not None:
            install_client_layers(ledger)

            def settle():
                # the client blocks on the mesh here: part of its blocking path
                ledger.timed("mesh.coordinator.settle", child.settle, (), {}, wait=True)

        try:
            replay = stream_requests(
                client, plan.requests, wl.window, wl.depth, clock, settle=settle
            )
        finally:
            if ledger is not None:
                ledger.uninstall()
        report = client.report()
        client_bytes = (backend.bytes_sent, backend.bytes_received)
    finally:
        client.close()
        child_out = child.request(op="stop")
    return PassResult(
        setup_s=clock.span(start, setup_end),
        report=report,
        ledger=ledger.export() if ledger else None,
        child=child_out,
        client_bytes=client_bytes,
        **replay,
    )

"""Layer ledger: timing wrappers around each serving layer's entry points.

A traced pass installs wrappers on the public entry points of every
layer (see the ``install_*`` functions), runs, and removes them again:
untraced passes run the library exactly as shipped. Each wrapper counts
calls and measures busy time; a thread-local stack of open calls turns
busy time into *self* time (busy minus the time of wrapped calls made
from inside), so summing self time over the layers of one thread never
counts a microsecond twice.

Work that runs in mesh worker processes is not wrapped: it is read from
the spans the program already emits (``mesh.dispatch``,
``worker.execute``), collected by :class:`SpanTotals`.
"""

from __future__ import annotations

import functools
import threading
from collections import defaultdict
from time import perf_counter

__all__ = [
    "Ledger",
    "SpanTotals",
    "install_client_layers",
    "install_codec_layers",
    "install_gateway_layers",
    "install_kernel_layers",
    "merge_exports",
]


class Ledger:
    """Per-subject counters, latency samples and maxima filled by wrappers.

    Rows are keyed by ``<layer>.<subject>`` and hold ``calls``,
    ``busy_s`` and ``self_s`` plus whatever extra counters a wrapper's
    ``observe`` hook adds (``bytes``, ``points``, ...).
    """

    def __init__(self) -> None:
        self.rows: dict[str, dict] = defaultdict(lambda: defaultdict(float))
        self.samples: dict[str, list] = defaultdict(list)
        self.maxima: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple] = []

    # -- recording ------------------------------------------------------ #

    def count(self, subject: str, key: str, amount: float = 1) -> None:
        with self._lock:
            self.rows[subject][key] += amount

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(value)

    def maximum(self, name: str, value: float) -> None:
        with self._lock:
            if value > self.maxima.get(name, float("-inf")):
                self.maxima[name] = value

    def timed(self, subject, func, args, kwargs, observe=None, wait=False):
        """Run ``func`` as one call of ``subject``; self time excludes
        wrapped calls nested inside it on the same thread."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if callable(subject):
            subject = subject(args)
        frame = [0.0]
        stack.append(frame)
        start = perf_counter()
        result = exc = None
        try:
            result = func(*args, **kwargs)
            return result
        except BaseException as err:
            exc = err
            raise
        finally:
            elapsed = perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][0] += elapsed
            own = elapsed - frame[0]
            with self._lock:
                row = self.rows[subject]
                row["calls"] += 1
                row["busy_s"] += elapsed
                row["self_s"] += own
                if wait:
                    row["wait_s"] += own
            if observe is not None:
                observe(self, subject, args, result, exc)

    # -- patching ------------------------------------------------------- #

    def wrap(self, owner, attr: str, subject, *, observe=None, wait=False) -> None:
        """Replace ``owner.attr`` (a function defined on that class or
        module) with a timing wrapper; :meth:`uninstall` restores it."""
        if attr not in vars(owner):
            raise AttributeError(f"{owner!r} does not define {attr!r} itself")
        func = vars(owner)[attr]

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            return self.timed(subject, func, args, kwargs, observe, wait)

        self.patch(owner, attr, wrapper)

    def wrap_async_latency(self, owner, attr: str, sample_name: str) -> None:
        """Time a coroutine method into a millisecond sample series. Async
        code interleaves on one thread, so it stays off the self-time stack."""
        func = vars(owner)[attr]

        @functools.wraps(func)
        async def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return await func(*args, **kwargs)
            finally:
                self.sample(sample_name, (perf_counter() - start) * 1e3)

        self.patch(owner, attr, wrapper)

    def patch(self, owner, attr: str, replacement) -> None:
        had_own = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Put every patched attribute back exactly as it was."""
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- export --------------------------------------------------------- #

    def export(self) -> dict:
        with self._lock:
            return {
                "rows": {k: dict(v) for k, v in self.rows.items()},
                "samples": {k: list(v) for k, v in self.samples.items()},
                "maxima": dict(self.maxima),
            }


def merge_exports(exports) -> dict:
    """Sum rows, pool samples and take maxima over several exports."""
    rows: dict = defaultdict(lambda: defaultdict(float))
    samples: dict = defaultdict(list)
    maxima: dict = {}
    for export in exports:
        for subject, row in export["rows"].items():
            for key, value in row.items():
                rows[subject][key] += value
        for name, values in export["samples"].items():
            samples[name].extend(values)
        for name, value in export["maxima"].items():
            maxima[name] = max(value, maxima.get(name, value))
    return {"rows": rows, "samples": samples, "maxima": maxima}


class SpanTotals:
    """A tracer sink that keeps only per-name span counts and durations."""

    def __init__(self) -> None:
        self.rows: dict[str, list] = {}
        self._lock = threading.Lock()

    def write(self, record: dict) -> None:
        if record.get("type") != "span":
            return
        with self._lock:
            row = self.rows.setdefault(record["name"], [0, 0.0])
            row[0] += 1
            row[1] += float(record["duration_s"])

    def flush(self) -> None:
        pass


# ---------------------------------------------------------------------- #
# layer tables                                                             #
# ---------------------------------------------------------------------- #


def _cohort(ledger, subject, args, result, exc):
    if exc is None:
        ledger.count("service.engine.cohort", "flushes")
        ledger.count("service.engine.cohort", "points", len(args[1]))


def _points(ledger, subject, args, result, exc):
    ledger.count(subject, "points", len(args[1]))


def _refused(ledger, subject, args, result, exc):
    from repro.privacy.budget import BudgetExceededError

    if isinstance(exc, BudgetExceededError):
        ledger.count(subject, "refused")


def _match(ledger, subject, args, result, exc):
    if exc is not None:
        return
    if result is None:
        ledger.count(subject, "unassigned")
    else:
        ledger.count(subject, "assigned")
        ledger.count(subject, "level_sum", result[1])


def _result_bytes(ledger, subject, args, result, exc):
    if result is not None:
        ledger.count(subject, "bytes", len(result))


def _arg_bytes(ledger, subject, args, result, exc):
    ledger.count(subject, "bytes", len(args[0]))


def install_kernel_layers(ledger: Ledger) -> None:
    """api, routing, engine ingest, shard, privacy and matching layers."""
    from repro.api.backends import BackendBase
    from repro.api.client import AssignmentClient
    from repro.api.middleware import RequestValidator
    from repro.crowdsourcing.server import MatchingServer
    from repro.geometry.grid import SnapIndex
    from repro.privacy.budget import PrivacyBudgetLedger
    from repro.privacy.tree_mechanism import TreeMechanism
    from repro.service.engine import ShardedAssignmentEngine
    from repro.service.shard import ShardServer
    from repro.service.sharding import ShardMap

    ledger.wrap(AssignmentClient, "call", "api.client")
    ledger.wrap(RequestValidator, "validate", "api.middleware")
    ledger.wrap(BackendBase, "batch", "api.backend")
    ledger.wrap(ShardMap, "shard_of_many", "service.sharding.route")
    ledger.wrap(SnapIndex, "snap_many", "geometry.grid.snap")
    ledger.wrap(SnapIndex, "snap", "geometry.grid.snap")
    for verb in ("register_worker", "register_workers", "submit_task"):
        ledger.wrap(ShardedAssignmentEngine, verb, "service.engine.ingest")
    ledger.wrap(
        ShardServer, "register_cohort", "service.shard.register_cohort",
        observe=_cohort,
    )
    ledger.wrap(ShardServer, "submit_task", "service.shard.submit_task")
    ledger.wrap(
        TreeMechanism, "obfuscate_points_batch", "privacy.mechanism.obfuscate",
        observe=_points,
    )
    ledger.wrap(
        PrivacyBudgetLedger, "spend_batch", "privacy.budget.spend",
        observe=_refused,
    )
    ledger.wrap(
        MatchingServer, "submit_task_detailed", "matching.submit", observe=_match
    )


def _bin1_subject(args) -> str:
    from repro.gateway.protocol import PACKED_DOC_TAG

    payload = args[0]
    packed = len(payload) >= 3 and payload[2] == PACKED_DOC_TAG
    return "gateway.codec.packed" if packed else "gateway.codec.generic"


def install_codec_layers(ledger: Ledger) -> None:
    """bin1's three encodings, patched where their callers look them up."""
    from repro.gateway import codec, remote, server

    rows = "gateway.codec.stream_rows"
    ledger.wrap(remote, "encode_stream_batch", rows, observe=_result_bytes)
    ledger.wrap(remote, "decode_stream_result", rows, observe=_arg_bytes)
    ledger.wrap(server, "decode_stream_batch", rows, observe=_arg_bytes)
    ledger.wrap(server, "encode_stream_result", rows, observe=_result_bytes)
    # protocol imports these from the codec module at call time
    ledger.wrap(codec, "encode_bin1", "gateway.codec.generic", observe=_result_bytes)
    ledger.wrap(codec, "encode_packed", "gateway.codec.packed", observe=_result_bytes)
    ledger.wrap(codec, "decode_bin1", _bin1_subject, observe=_arg_bytes)


def install_client_layers(ledger: Ledger) -> None:
    """Everything a gateway client process runs: api plus the transport."""
    from repro.api.client import AssignmentClient
    from repro.api.middleware import RequestValidator
    from repro.gateway.remote import RemoteBackend

    ledger.wrap(AssignmentClient, "call", "api.client")
    ledger.wrap(RequestValidator, "validate", "api.middleware")
    ledger.wrap(RemoteBackend, "send_request", "gateway.remote.send")
    ledger.wrap(RemoteBackend, "recv_response", "gateway.remote.recv", wait=True)
    install_codec_layers(ledger)


def install_gateway_layers(ledger: Ledger, server) -> None:
    """The gateway process: dispatch, scheduler hand-off, mesh coordinator,
    plus the kernel layers for a backend served in-process."""
    from repro.api.backends import MeshBackend
    from repro.cluster.dispatch import FamilyJournal
    from repro.gateway.server import GatewayServer
    from repro.mesh.coordinator import MeshCoordinator
    from repro.obs.trace import TraceContext, use_context

    install_kernel_layers(ledger)
    install_codec_layers(ledger)
    ledger.wrap_async_latency(GatewayServer, "_dispatch", "gateway.server.dispatch_ms")

    scheduler = server._scheduler
    submit = scheduler.submit

    def traced_submit(key, fn, /, *args, **kwargs):
        queued = perf_counter()

        def job(*a, **k):
            ledger.sample(
                "runtime.scheduler.queue_wait_ms", (perf_counter() - queued) * 1e3
            )
            return ledger.timed("runtime.scheduler.execute", fn, a, k)

        future = submit(key, job, *args, **kwargs)
        ledger.maximum(
            "runtime.scheduler.key_depth_max",
            max(scheduler.key_depths().values(), default=0),
        )
        return future

    ledger.patch(scheduler, "submit", traced_submit)

    ledger.wrap(MeshCoordinator, "result_of", "mesh.coordinator.result_wait", wait=True)
    ledger.wrap(FamilyJournal, "absorb", "cluster.dispatch.journal.absorb")
    batch = vars(MeshBackend)["batch"]

    def rooted_batch(self, request):
        # a current trace context is what makes the coordinator emit its
        # mesh.dispatch spans and ask workers for worker.execute spans
        with use_context(TraceContext.root()):
            return ledger.timed("api.backend", batch, (self, request), {})

    ledger.patch(MeshBackend, "batch", rooted_batch)

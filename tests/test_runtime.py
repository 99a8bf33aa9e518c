"""repro.runtime: the pipelined execution core and its determinism law.

The property under test is the tentpole guarantee: *any* interleaving
the scheduler permits — different shards overlapping, barriers landing
mid-window, handlers finishing out of order — yields assignments and
reports bit-identical to serial replay. The suite checks the law two
ways: on the scheduler as a pure model, and on the worker-mesh backend
with adversarial jitter and checkpoint cuts in the window (the engine
serves one caller, so only the mesh is driven concurrently).
"""

import random
import threading
import time

import pytest

from repro.api import (
    AssignmentClient,
    Flush,
    GetReport,
    RegisterWorker,
    ServiceSpec,
    SubmitTask,
    TaskDecision,
    make_backend,
)
from repro.api.conformance import build_conformance_stream
from repro.api.messages import (
    StreamWindow,
    WindowResult,
    WorkerRegistered,
    window_responses,
)
from repro.geometry import Box
from repro.runtime import PipelineScheduler, release_order
from repro.service import ShardMap

REGION = Box.square(200.0)


def small_spec(shards=(2, 2), seed=3) -> ServiceSpec:
    return ServiceSpec(
        region=REGION, shards=shards, grid_nx=6, batch_size=8, seed=seed
    )


# --------------------------------------------------------------------- #
# scheduler semantics                                                    #
# --------------------------------------------------------------------- #


class TestPipelineScheduler:
    def test_same_key_stays_fifo_under_jitter(self):
        rng = random.Random(0)
        log: dict[str, list] = {"a": [], "b": [], "c": []}

        def job(key, i):
            time.sleep(rng.random() * 0.002)
            log[key].append(i)

        with PipelineScheduler(max_workers=4) as sched:
            for i in range(40):
                for key in log:
                    sched.submit(key, job, key, i)
            sched.drain()
        assert all(seq == list(range(40)) for seq in log.values())

    def test_different_keys_run_concurrently(self):
        # 'a' blocks until 'b' has run: only possible with real overlap
        release = threading.Event()
        with PipelineScheduler(max_workers=2) as sched:
            fut_a = sched.submit("a", release.wait, 10)
            sched.submit("b", release.set)
            assert fut_a.result(timeout=10) is True

    def test_barrier_observes_everything_and_blocks_everything(self):
        rng = random.Random(1)
        counts = {"a": 0, "b": 0}
        seen_at_barrier = []

        def bump(key):
            time.sleep(rng.random() * 0.002)
            counts[key] += 1

        with PipelineScheduler(max_workers=4) as sched:
            for _ in range(10):
                sched.submit("a", bump, "a")
                sched.submit("b", bump, "b")
            sched.submit(None, lambda: seen_at_barrier.append(dict(counts)))
            for _ in range(10):
                sched.submit("a", bump, "a")
                sched.submit("b", bump, "b")
            sched.drain()
        assert seen_at_barrier == [{"a": 10, "b": 10}]
        assert counts == {"a": 20, "b": 20}

    def test_failed_job_orders_but_does_not_poison(self):
        with PipelineScheduler(max_workers=2) as sched:
            boom = sched.submit("k", lambda: 1 / 0)
            after = sched.submit("k", lambda: "alive")
            barrier = sched.submit(None, lambda: "done")
            assert after.result(timeout=10) == "alive"
            assert barrier.result(timeout=10) == "done"
            assert isinstance(boom.exception(timeout=10), ZeroDivisionError)

    def test_serial_configuration_is_strictly_ordered(self):
        # key=None everywhere on one worker: the PR-4 dispatch loop
        order = []
        with PipelineScheduler(max_workers=1) as sched:
            for i in range(25):
                sched.submit(None, order.append, i)
            sched.drain()
        assert order == list(range(25))

    def test_cancelled_handle_abandons_result_but_never_reorders(self):
        """A consumer cancelling its result handle (asyncio.wrap_future
        does this on task cancellation) abandons the *result* only: the
        job still executes exactly once in its slot, same-key successors
        and barriers still wait for every live execution, and in-flight
        accounting stays exact (drain() would hang otherwise)."""
        sched = PipelineScheduler(max_workers=4)
        try:
            ran: list = []
            release = threading.Event()

            def slow_first():
                release.wait(10)
                ran.append("first")

            first = sched.submit("k", slow_first)
            abandoned = sched.submit("k", lambda: ran.append("second"))
            assert abandoned.cancel()  # pending handle: cancellable
            successor = sched.submit("k", lambda: list(ran))
            barrier = sched.submit(None, lambda: list(ran))
            time.sleep(0.05)
            # nothing skipped ahead of the still-running first job
            assert not successor.done() and not barrier.done()
            release.set()
            # the chain never skipped: both saw first AND the abandoned
            # job's execution (its result handle alone was cancelled)
            assert successor.result(timeout=10) == ["first", "second"]
            assert barrier.result(timeout=10) == ["first", "second"]
            assert abandoned.cancelled()
            assert first.result(timeout=10) is None
            assert sched.drain(timeout=10)  # accounting intact
        finally:
            sched.shutdown()

    def test_runtime_imports_standalone(self):
        """The execution core must be importable before (and without)
        the api layer — the dependency arrow points api -> runtime."""
        import subprocess
        import sys

        proof = subprocess.run(
            [sys.executable, "-c", "import repro.runtime; print('ok')"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proof.returncode == 0, proof.stderr
        assert proof.stdout.strip() == "ok"

    def test_key_depths_gauge_tracks_backlog_per_key(self):
        gate = threading.Event()
        sched = PipelineScheduler(max_workers=2)
        try:
            sched.submit("a", gate.wait, 30)
            sched.submit("a", lambda: None)
            sched.submit("b", gate.wait, 30)
            sched.submit(None, lambda: None)  # barrier gauges under None
            depths = sched.key_depths()
            assert depths["a"] == 2
            assert depths["b"] == 1
            assert depths[None] == 1
            gate.set()
            assert sched.drain(timeout=10)
            assert sched.key_depths() == {}  # idle keys are absent
            assert sched.submitted == 4
            assert sched.barriers == 1
        finally:
            gate.set()
            sched.shutdown()

    def test_retired_keys_are_pruned_from_the_tail_map(self):
        # a long stream of one-shot keys (mesh shard families that see a
        # single cohort each) must not grow the internal chain-tail map
        # without bound: once a key's chain drains, its tail is retired
        sched = PipelineScheduler(max_workers=4)
        try:
            futures = [
                sched.submit(f"one-shot-{i}", lambda: None) for i in range(200)
            ]
            sched.submit(None, lambda: None)  # and a barrier
            assert sched.drain(timeout=10)
            for future in futures:
                future.result(timeout=10)
            assert sched._tails == {}
            assert sched._barrier is None
            assert sched.key_depths() == {}
            # retiring a tail must not break resubmission under the key
            assert sched.submit("one-shot-0", lambda: "again").result(10) == "again"
        finally:
            sched.shutdown()

    def test_released_barrier_lets_later_jobs_start_before_it_returns(self):
        finish = threading.Event()
        started = []

        def window():
            started.append("window")
            release_order()
            assert finish.wait(10)  # still running: awaiting outcomes
            return "window done"

        with PipelineScheduler(max_workers=4) as sched:
            first = sched.submit(None, window)
            keyed = sched.submit("a", lambda: started.append("keyed"))
            barrier = sched.submit(None, lambda: started.append("barrier"))
            keyed.result(timeout=10)
            barrier.result(timeout=10)
            assert not first.done()
            assert started == ["window", "keyed", "barrier"]
            finish.set()
            assert first.result(timeout=10) == "window done"

    def test_released_keyed_job_lets_the_next_same_key_job_start(self):
        finish = threading.Event()
        with PipelineScheduler(max_workers=2) as sched:

            def first_job():
                release_order()
                return finish.wait(10)

            first = sched.submit("k", first_job)
            second = sched.submit("k", lambda: "second")
            assert second.result(timeout=10) == "second"
            assert not first.done()
            finish.set()
            assert first.result(timeout=10) is True

    def test_released_job_stays_in_flight_until_it_returns(self):
        finish = threading.Event()
        released = threading.Event()

        def job(fail):
            release_order()
            released.set()
            finish.wait(10)
            if fail:
                raise KeyError("late failure")
            return "late result"

        sched = PipelineScheduler(max_workers=4)
        try:
            ok = sched.submit("a", job, False)
            assert released.wait(10)
            released.clear()
            bad = sched.submit(None, job, True)
            assert released.wait(10)
            assert sched.in_flight == 2
            assert sched.key_depths() == {"a": 1, None: 1}
            assert not sched.drain(timeout=0.05)  # released, not finished
            finish.set()
            assert sched.drain(timeout=10)
            assert ok.result(timeout=10) == "late result"
            assert isinstance(bad.exception(timeout=10), KeyError)
            assert sched.key_depths() == {}
        finally:
            finish.set()
            sched.shutdown()

    def test_a_job_that_fails_before_releasing_holds_its_successors(self):
        gate = threading.Event()
        order = []

        def failing():
            gate.wait(10)
            order.append("failing")
            raise ValueError("duplicate worker id")

        with PipelineScheduler(max_workers=4) as sched:
            boom = sched.submit(None, failing)
            after = sched.submit("a", lambda: order.append("after"))
            time.sleep(0.05)
            assert order == []  # nothing overtook the unreleased barrier
            gate.set()
            after.result(timeout=10)
            assert order == ["failing", "after"]
            assert isinstance(boom.exception(timeout=10), ValueError)

    def test_one_worker_stays_serial_even_when_jobs_release(self):
        order = []

        def job(i):
            release_order()
            time.sleep(0.001)
            order.append(i)

        with PipelineScheduler(max_workers=1) as sched:
            for i in range(20):
                sched.submit(None if i % 2 else "k", job, i)
            sched.drain()
        assert order == list(range(20))

    def test_release_outside_a_job_and_twice_does_nothing(self):
        release_order()  # no job on this thread: a no-op
        finish = threading.Event()
        with PipelineScheduler(max_workers=4) as sched:

            def twice():
                release_order()
                release_order()  # the second call must not raise
                finish.wait(10)
                return "ok"

            first = sched.submit("k", twice)
            assert sched.submit("k", lambda: "next").result(timeout=10) == "next"
            finish.set()
            assert first.result(timeout=10) == "ok"
            assert sched.drain(timeout=10)  # the accounting survived

    def test_shutdown_refuses_new_work(self):
        sched = PipelineScheduler(max_workers=1)
        sched.shutdown()
        with pytest.raises(RuntimeError):
            sched.submit("k", lambda: None)

    def test_invalid_sizing_rejected(self):
        with pytest.raises(ValueError):
            PipelineScheduler(max_workers=0)


# --------------------------------------------------------------------- #
# the determinism law (satellite: ordering-semantics property tests)     #
# --------------------------------------------------------------------- #


def _serial_model(ops):
    """Reference semantics: per-key logs + barrier snapshots, serially."""
    logs: dict[str, list] = {}
    snapshots = []
    for key, value in ops:
        if key is None:
            snapshots.append({k: list(v) for k, v in sorted(logs.items())})
        else:
            logs.setdefault(key, []).append(value)
    return logs, snapshots


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_property_any_permitted_interleaving_replays_serial(seed):
    """Random keyed streams with barriers, random handler jitter: per-key
    logs and barrier snapshots must equal the serial model exactly."""
    rng = random.Random(seed)
    keys = [f"s{i}" for i in range(4)]
    ops = []
    for i in range(rng.randrange(150, 250)):
        if rng.random() < 0.05:
            ops.append((None, None))  # barrier mid-stream
        else:
            ops.append((rng.choice(keys), i))
    want_logs, want_snapshots = _serial_model(ops)

    logs: dict[str, list] = {}
    snapshots: list[dict] = []
    lock = threading.Lock()
    jitter = random.Random(seed + 100)

    def keyed(key, value):
        time.sleep(jitter.random() * 0.001)
        with lock:
            logs.setdefault(key, []).append(value)

    def barrier():
        snapshots.append({k: list(v) for k, v in sorted(logs.items())})

    with PipelineScheduler(max_workers=4) as sched:
        for key, value in ops:
            if key is None:
                sched.submit(None, barrier)
            else:
                sched.submit(key, keyed, key, value)
        sched.drain()
    assert logs == want_logs
    assert snapshots == want_snapshots


def _cell_key(shard_map, request):
    """The key these tests schedule a request under: the lattice cell of
    a register/submit's location, ``None`` (a barrier) for anything else.
    No serving layer calls a backend under per-cell keys (the gateway
    runs every request as a barrier, and the engine serves one caller);
    driving the mesh this way checks that it stays bit-identical when
    called concurrently, which its released windows rely on: a window
    still enters the coordinator from a second thread while the one
    before it awaits its outcomes."""
    if isinstance(request, (RegisterWorker, SubmitTask)):
        return f"s{shard_map.shard_of(request.location)}"
    return None


def _drive_scheduled(backend, requests, *, seed, barrier_every=25):
    """Drive a backend through the scheduler with adversarial jitter,
    one key per lattice cell, folding Flush/GetReport barriers into the
    window."""
    jitter = random.Random(seed)
    shard_map = ShardMap(backend.spec.region, *backend.spec.shards)
    # a bare client sends each register/submit as a window of one row
    call = AssignmentClient(backend, middleware=[]).call

    def jittered(request):
        time.sleep(jitter.random() * 0.002)
        return call(request)

    futures = []
    backend.open()
    try:
        with PipelineScheduler(max_workers=4) as sched:
            for i, request in enumerate(requests):
                futures.append(
                    sched.submit(_cell_key(shard_map, request), jittered, request)
                )
                if (i + 1) % barrier_every == 0:
                    futures.append(sched.submit(None, jittered, Flush()))
            futures.append(sched.submit(None, jittered, GetReport()))
            sched.drain()
        responses = [f.result() for f in futures]
    finally:
        backend.close()
    report = responses[-1].report
    decisions = [
        (r.task_id, r.worker_id) for r in responses if isinstance(r, TaskDecision)
    ]
    return decisions, report


def _drive_serial(backend, requests, *, barrier_every=25):
    responses = []
    call = AssignmentClient(backend, middleware=[]).call
    backend.open()
    try:
        for i, request in enumerate(requests):
            responses.append(call(request))
            if barrier_every and (i + 1) % barrier_every == 0:
                backend.handle(Flush())
        report = backend.handle(GetReport()).report
    finally:
        backend.close()
    decisions = [
        (r.task_id, r.worker_id) for r in responses if isinstance(r, TaskDecision)
    ]
    return decisions, report


def _reports_agree(a, b):
    assert a.workers_registered == b.workers_registered
    assert a.tasks_assigned == b.tasks_assigned
    assert a.tasks_unassigned == b.tasks_unassigned
    assert a.sim_duration == b.sim_duration
    assert a.mean_reported_distance == pytest.approx(
        b.mean_reported_distance, rel=1e-12, abs=1e-12
    )


def test_mesh_backend_scheduled_with_checkpoint_barriers_mid_window():
    """The mesh cell of the law: per-family keys, coordinator
    checkpoint cuts firing mid-stream (checkpoint_every far below the
    stream length), plus explicit Flush barriers — still bit-identical
    to the serial sharded reference."""
    spec = small_spec(seed=13)
    requests = build_conformance_stream(REGION, 60, 45, seed=17)
    serial_decisions, serial_report = _drive_serial(
        make_backend("sharded", spec), requests
    )
    mesh = make_backend(
        "mesh", spec, n_peers=2, chunk_size=7, checkpoint_every=32
    )
    decisions, report = _drive_scheduled(mesh, requests, seed=2)
    assert decisions == serial_decisions
    _reports_agree(report, serial_report)


def test_mesh_batched_windows_scheduled_by_batch_key():
    """Single-cell windows scheduled concurrently, one key per cell,
    replay the serial per-shard history."""
    spec = small_spec(seed=21)
    requests = build_conformance_stream(REGION, 60, 45, seed=23)
    # no mid-stream flush barriers here: the windowed run has none, and
    # a flush changes cohort composition (it is *supposed* to be visible)
    serial_decisions, serial_report = _drive_serial(
        make_backend("sharded", spec), requests, barrier_every=None
    )

    backend = make_backend("mesh", spec, n_peers=2, chunk_size=5)
    shard_map = ShardMap(spec.region, *spec.shards)
    backend.open()
    try:
        # partition into per-cell substreams, then window each: every
        # window has one cell's key and they all overlap
        by_key: dict[str, list] = {}
        for i, request in enumerate(requests):
            by_key.setdefault(_cell_key(shard_map, request), []).append(
                (i, request)
            )
        futures = []
        with PipelineScheduler(max_workers=4) as sched:
            for key, indexed in sorted(by_key.items()):
                for start in range(0, len(indexed), 16):
                    chunk = indexed[start : start + 16]
                    run = [request for _, request in chunk]
                    window = StreamWindow.of(chunk[0][0], run)
                    future = sched.submit(key, backend.handle, window)
                    futures.append((chunk, window, future))
            report_future = sched.submit(
                None, backend.handle, GetReport()
            )
            sched.drain()
        by_index = {}
        for chunk, window, future in futures:
            result = future.result()
            assert isinstance(result, WindowResult)
            assert result.seq == window.seq and result.ids == window.ids
            run = [request for _, request in chunk]
            responses = window_responses(run, result.is_task, result.workers)
            by_index.update(zip((i for i, _ in chunk), responses))
        responses = [by_index[i] for i in range(len(requests))]
        report = report_future.result().report
    finally:
        backend.close()
    decisions = [
        (r.task_id, r.worker_id) for r in responses if isinstance(r, TaskDecision)
    ]
    assert decisions == serial_decisions
    _reports_agree(report, serial_report)
    assert sum(
        1 for r in responses if isinstance(r, WorkerRegistered)
    ) == 60


# --------------------------------------------------------------------- #
# middleware thread-safety (satellite: hammer tests)                     #
# --------------------------------------------------------------------- #


def _hammer(n_threads, per_thread, fn):
    """Run ``fn(thread_idx, call_idx)`` from many threads, full blast."""
    start = threading.Barrier(n_threads)
    errors = []

    def worker(t):
        start.wait()
        for i in range(per_thread):
            try:
                fn(t, i)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)
                raise

    threads = [
        threading.Thread(target=worker, args=(t,), daemon=True)
        for t in range(n_threads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not errors


class TestMiddlewareHammer:
    N_THREADS = 8
    PER_THREAD = 400

    def test_token_bucket_exact_accounting_under_contention(self):
        from repro.api import AdmissionRejected
        from repro.api.middleware import TokenBucket

        total = self.N_THREADS * self.PER_THREAD
        burst = 537  # deliberately not a multiple of anything in sight
        # frozen clock: no refill, so exactly `burst` tokens exist, ever.
        # Any double-spend or lost update breaks one of the equalities.
        bucket = TokenBucket(rate=1.0, burst=burst, clock=lambda: 0.0)
        outcomes = {"admitted": 0, "rejected": 0}
        lock = threading.Lock()

        def call(t, i):
            # a sync register, as the chain sees it: one row, one token
            req = StreamWindow.of(
                0,
                [RegisterWorker(worker_id=t * self.PER_THREAD + i, location=(1.0, 1.0))],
            )
            try:
                bucket(req, lambda r: None)
            except AdmissionRejected:
                with lock:
                    outcomes["rejected"] += 1
            else:
                with lock:
                    outcomes["admitted"] += 1

        _hammer(self.N_THREADS, self.PER_THREAD, call)
        assert outcomes["admitted"] == burst
        assert outcomes["rejected"] == total - burst
        assert bucket.admitted == burst
        assert bucket.rejected == total - burst

    def test_token_bucket_batch_costs_stay_exact_under_contention(self):
        from repro.api import AdmissionRejected
        from repro.api.middleware import TokenBucket

        cost = 3
        bucket = TokenBucket(rate=1.0, burst=1000, clock=lambda: 0.0)

        def call(t, i):
            window = StreamWindow.of(
                0,
                [
                    RegisterWorker(worker_id=k, location=(1.0, 1.0))
                    for k in range(cost)
                ],
            )
            try:
                bucket(window, lambda r: None)
            except AdmissionRejected:
                pass

        _hammer(self.N_THREADS, 100, call)
        offered = self.N_THREADS * 100 * cost
        assert bucket.admitted + bucket.rejected == offered
        assert bucket.admitted == 999  # 333 windows of 3 fit in 1000
        assert bucket.admitted % cost == 0  # never a partial charge

    def test_latency_metrics_exact_counts_under_contention(self):
        from repro.api.middleware import LatencyMetrics

        metrics = LatencyMetrics(capacity=64)
        fail_every = 7

        def call(t, i):
            kinds = [
                RegisterWorker(worker_id=0, location=(1.0, 1.0)),
                SubmitTask(task_id=0, location=(1.0, 1.0)),
                Flush(),
            ]
            req = kinds[i % 3]

            def handler(r):
                if i % fail_every == 0:
                    raise RuntimeError("injected")
                return "ok"

            try:
                metrics(req, handler)
            except RuntimeError:
                pass

        _hammer(self.N_THREADS, self.PER_THREAD, call)
        total = self.N_THREADS * self.PER_THREAD
        registry = metrics.registry
        calls = registry.counters(LatencyMetrics.CALLS, label="kind")
        failures = registry.counters(LatencyMetrics.FAILURES, label="kind")
        latencies = registry.histograms(LatencyMetrics.LATENCY, label="kind")
        assert sum(calls.values()) == total
        # the bounded reservoirs never lose a sample's *count*, only old
        # raw values: exact-count is the invariant the lock protects
        assert sum(r.count for r in latencies.values()) == total
        want_failures = sum(
            1
            for t in range(self.N_THREADS)
            for i in range(self.PER_THREAD)
            if i % fail_every == 0
        )
        assert sum(failures.values()) == want_failures
        for series in latencies.values():
            assert series.total >= 0.0

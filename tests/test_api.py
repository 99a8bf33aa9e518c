"""Tests for repro.api: wire format, middleware chain, client modes, shims."""

import json
import warnings

import numpy as np
import pytest

from repro.api import (
    AdmissionRejected,
    AssignmentClient,
    Batch,
    BatchResult,
    ErrorInfo,
    ErrorMapper,
    Flush,
    Flushed,
    GetReport,
    InProcessBackend,
    LatencyMetrics,
    RegisterWorker,
    ReportResult,
    RequestRejected,
    RequestValidator,
    ServiceSpec,
    StreamEnvelope,
    SubmitTask,
    TaskDecision,
    TokenBucket,
    UnsupportedVersion,
    ValidationFailed,
    WIRE_SCHEMA,
    WIRE_VERSION,
    WorkerRegistered,
    from_wire,
    make_backend,
    to_wire,
)
from repro.geometry import Box
from repro.service import LoadConfig, LoadGenerator
from repro.service.metrics import percentile
from repro.utils import keyed_shard_seed

REGION = Box.square(100.0)


def small_spec(**kw) -> ServiceSpec:
    defaults = dict(region=REGION, shards=(1, 1), grid_nx=6, batch_size=4, seed=0)
    defaults.update(kw)
    return ServiceSpec(**defaults)


class TestWireFormat:
    MESSAGES = [
        RegisterWorker(worker_id=3, location=(1.0, 2.0), time=0.5),
        SubmitTask(task_id=9, location=(4.0, 5.0), time=1.25),
        Flush(),
        GetReport(wall_seconds=2.5),
        Batch(items=(Flush(), SubmitTask(task_id=1, location=(0.0, 0.0)))),
        StreamEnvelope(seq=7, item=RegisterWorker(worker_id=0, location=(1.0, 1.0))),
        WorkerRegistered(worker_id=3),
        TaskDecision(task_id=9, worker_id=None),
        TaskDecision(task_id=9, worker_id=4),
        Flushed(),
        BatchResult(items=(Flushed(), TaskDecision(task_id=1, worker_id=2))),
        ErrorInfo(code="rejected", message="nope", retryable=True, detail="x"),
    ]

    @pytest.mark.parametrize("message", MESSAGES, ids=lambda m: type(m).__name__)
    def test_round_trip(self, message):
        doc = to_wire(message)
        assert doc["schema"] == WIRE_SCHEMA
        assert doc["version"] == WIRE_VERSION
        assert from_wire(doc) == message

    def test_wire_is_json_serializable(self):
        doc = to_wire(Batch(items=tuple(self.MESSAGES[:4])))
        assert from_wire(json.loads(json.dumps(doc))) == Batch(
            items=tuple(self.MESSAGES[:4])
        )

    def test_report_round_trip(self):
        config = LoadConfig(n_workers=60, n_tasks=30, shards=(2, 1), grid_nx=6, seed=0)
        report = LoadGenerator(config).run()
        restored = from_wire(to_wire(ReportResult(report=report))).report
        assert restored.tasks_assigned == report.tasks_assigned
        assert restored.wall_seconds == report.wall_seconds
        assert len(restored.shards) == len(report.shards)
        assert restored.shards == report.shards

    def test_foreign_schema_rejected(self):
        doc = to_wire(Flush())
        doc["schema"] = "someone.else"
        with pytest.raises(UnsupportedVersion):
            from_wire(doc)

    def test_future_version_rejected(self):
        doc = to_wire(Flush())
        doc["version"] = WIRE_VERSION + 1
        with pytest.raises(UnsupportedVersion):
            from_wire(doc)

    def test_unknown_kind_rejected(self):
        doc = to_wire(Flush())
        doc["kind"] = "teleport_worker"
        with pytest.raises(ValidationFailed):
            from_wire(doc)

    def test_malformed_body_rejected(self):
        doc = to_wire(SubmitTask(task_id=1, location=(0.0, 0.0)))
        del doc["body"]["task_id"]
        with pytest.raises(ValidationFailed):
            from_wire(doc)

    def test_non_message_rejected(self):
        with pytest.raises(ValidationFailed):
            to_wire({"not": "a message"})


class TestRequestValidator:
    def check(self, request):
        RequestValidator().validate(request)

    def test_accepts_good_requests(self):
        self.check(RegisterWorker(worker_id=0, location=(1.0, 1.0)))
        self.check(Batch(items=(Flush(), GetReport())))
        self.check(StreamEnvelope(seq=0, item=Flush()))

    @pytest.mark.parametrize(
        "bad",
        [
            RegisterWorker(worker_id=-1, location=(0.0, 0.0)),
            RegisterWorker(worker_id=True, location=(0.0, 0.0)),
            RegisterWorker(worker_id=0, location=(float("nan"), 0.0)),
            SubmitTask(task_id=0, location=(float("inf"), 0.0)),
            SubmitTask(task_id=0, location=(0.0, 0.0), time=-1.0),
            StreamEnvelope(seq=-1, item=Flush()),
            Batch(items=(Batch(items=()),)),
            StreamEnvelope(seq=0, item=StreamEnvelope(seq=1, item=Flush())),
        ],
    )
    def test_rejects_bad_requests(self, bad):
        with pytest.raises(ValidationFailed):
            self.check(bad)

    def test_location_must_be_a_pair(self):
        with pytest.raises(ValidationFailed):
            RegisterWorker(worker_id=0, location=(1.0, 2.0, 3.0))


class TestTokenBucket:
    def test_admits_then_rejects_then_refills(self):
        clock = {"t": 0.0}
        bucket = TokenBucket(rate=1.0, burst=2, clock=lambda: clock["t"])
        ok = lambda req: bucket(req, lambda r: "served")
        assert ok(SubmitTask(task_id=0, location=(0.0, 0.0))) == "served"
        assert ok(SubmitTask(task_id=1, location=(0.0, 0.0))) == "served"
        with pytest.raises(AdmissionRejected) as excinfo:
            ok(SubmitTask(task_id=2, location=(0.0, 0.0)))
        assert excinfo.value.retryable
        assert excinfo.value.retry_after_s > 0
        clock["t"] = 1.5  # refill 1.5 tokens
        assert ok(SubmitTask(task_id=2, location=(0.0, 0.0))) == "served"
        assert bucket.admitted == 3
        assert bucket.rejected == 1

    def test_batch_charged_per_item_and_barriers_free(self):
        bucket = TokenBucket(rate=1.0, burst=3, clock=lambda: 0.0)
        batch = Batch(
            items=(
                RegisterWorker(worker_id=0, location=(0.0, 0.0)),
                StreamEnvelope(seq=0, item=SubmitTask(task_id=0, location=(0.0, 0.0))),
                Flush(),
                GetReport(),
            )
        )
        assert TokenBucket.cost_of(batch) == 2
        assert bucket(batch, lambda r: "served") == "served"
        # free verbs pass even with an empty bucket
        bucket2 = TokenBucket(rate=1e-9, burst=1, clock=lambda: 0.0)
        bucket2._tokens = 0.0
        assert bucket2(Flush(), lambda r: "served") == "served"


class TestLatencyMetrics:
    def test_records_calls_failures_and_quantiles(self):
        metrics = LatencyMetrics()

        def flaky(request):
            if isinstance(request, SubmitTask):
                raise ValueError("boom")
            return "served"

        metrics(Flush(), flaky)
        metrics(Flush(), flaky)
        with pytest.raises(ValueError):
            metrics(SubmitTask(task_id=0, location=(0.0, 0.0)), flaky)
        registry = metrics.registry
        calls = registry.counters(LatencyMetrics.CALLS, label="kind")
        failures = registry.counters(LatencyMetrics.FAILURES, label="kind")
        latencies = registry.histograms(LatencyMetrics.LATENCY, label="kind")
        assert calls == {"flush": 2, "submit_task": 1}
        assert failures == {"submit_task": 1}
        assert latencies["flush"].count == 2
        assert np.isfinite(percentile(latencies["flush"], 95))


class TestErrorMapper:
    def test_maps_raw_exceptions_to_structured(self):
        mapper = ErrorMapper()

        def failing(request):
            raise ValueError("worker id already registered: 7")

        with pytest.raises(RequestRejected) as excinfo:
            mapper(Flush(), failing)
        assert excinfo.value.code == "rejected"
        info = excinfo.value.info()
        assert isinstance(info, ErrorInfo)
        assert "already registered" in info.message

    def test_api_errors_pass_through_unwrapped(self):
        mapper = ErrorMapper()

        def failing(request):
            raise AdmissionRejected("full", retry_after_s=1.0)

        with pytest.raises(AdmissionRejected):
            mapper(Flush(), failing)


class TestClient:
    def test_sync_mode_end_to_end(self):
        with AssignmentClient(InProcessBackend(small_spec())) as client:
            for i in range(5):
                ack = client.register_worker(i, (10.0 * i + 5.0, 50.0))
                assert ack == WorkerRegistered(worker_id=i)
            worker = client.submit_task(0, (25.0, 50.0))
            assert worker in range(5)
            client.flush()
            report = client.report(wall_seconds=1.0)
            assert report.workers_registered == 5
            assert report.tasks_assigned == 1
            assert report.wall_seconds == 1.0

    def test_batch_mode_preserves_order(self):
        with AssignmentClient(InProcessBackend(small_spec())) as client:
            responses = client.call_batch(
                [
                    RegisterWorker(worker_id=0, location=(20.0, 20.0)),
                    RegisterWorker(worker_id=1, location=(80.0, 80.0)),
                    SubmitTask(task_id=0, location=(20.0, 20.0)),
                    SubmitTask(task_id=1, location=(80.0, 80.0)),
                    Flush(),
                ]
            )
            assert responses[0] == WorkerRegistered(worker_id=0)
            assert responses[1] == WorkerRegistered(worker_id=1)
            assert isinstance(responses[2], TaskDecision)
            assert responses[2].task_id == 0
            assert isinstance(responses[4], Flushed)
            decided = {r.task_id for r in responses[2:4]}
            assert decided == {0, 1}

    def test_stream_mode_yields_in_order(self):
        requests = [
            RegisterWorker(worker_id=i, location=(10.0 + i, 10.0)) for i in range(10)
        ] + [SubmitTask(task_id=i, location=(12.0, 10.0)) for i in range(4)]
        with AssignmentClient(InProcessBackend(small_spec())) as client:
            responses = list(client.stream(requests, window=3))
        assert len(responses) == 14
        assert [r.worker_id for r in responses[:10]] == list(range(10))
        assert [r.task_id for r in responses[10:]] == list(range(4))

    def test_structured_errors_cross_the_chain(self):
        with AssignmentClient(InProcessBackend(small_spec())) as client:
            client.register_worker(0, (10.0, 10.0))
            with pytest.raises(RequestRejected):
                client.register_worker(0, (20.0, 20.0))
            with pytest.raises(ValidationFailed):
                client.register_worker(-5, (20.0, 20.0))

    def test_lifecycle_closed_backend_refuses(self):
        backend = InProcessBackend(small_spec())
        client = AssignmentClient(backend)
        with client:
            client.register_worker(0, (10.0, 10.0))
        from repro.api import BackendUnavailable

        with pytest.raises(BackendUnavailable):
            client.flush()

    def test_custom_middleware_order_applies(self):
        metrics = LatencyMetrics()
        bucket = TokenBucket(rate=1e6, burst=100)
        middleware = [RequestValidator(), bucket, metrics, ErrorMapper()]
        with AssignmentClient(InProcessBackend(small_spec()), middleware) as client:
            client.register_worker(0, (10.0, 10.0))
            client.flush()
        calls = metrics.registry.counters(LatencyMetrics.CALLS, label="kind")
        assert calls["register_worker"] == 1
        assert bucket.admitted == 1


class TestBackendFactoryAndSpec:
    def test_make_backend_kinds(self):
        assert make_backend("inprocess", small_spec()).name == "inprocess"
        assert make_backend("sharded", small_spec()).name == "sharded"
        assert make_backend("mesh", small_spec()).name == "mesh"
        with pytest.raises(ValueError):
            make_backend("quantum", small_spec())

    def test_spec_round_trip_and_validation(self):
        spec = small_spec(shards=(2, 3), epsilon=0.7)
        assert ServiceSpec.from_dict(spec.to_dict()) == spec
        with pytest.raises(ValueError):
            small_spec(epsilon=-1.0)
        with pytest.raises(ValueError):
            small_spec(shards=(0, 1))
        with pytest.raises(ValueError):
            small_spec(seed="not-an-int")

    def test_inprocess_requires_single_cell(self):
        with pytest.raises(ValueError):
            InProcessBackend(small_spec(shards=(2, 2)))

    def test_engine_keyed_seeding_matches_cluster_convention(self):
        from repro.service.engine import ShardedAssignmentEngine
        from repro.service.shard import ShardServer

        engine = ShardedAssignmentEngine(REGION, shards=(2, 1), grid_nx=4, seed=13)
        for i, shard in enumerate(engine.host.shards.values()):
            # exactly what a mesh worker builds from its shard spec
            ref = ShardServer(
                f"s{i}",
                engine.shard_map.shard_box(i),
                grid_nx=4,
                seed=keyed_shard_seed(13, f"s{i}"),
            )
            assert shard.tree.paths.tolist() == ref.tree.paths.tolist()
        with pytest.raises(ValueError):
            ShardedAssignmentEngine(REGION, seed=None)


class TestDeprecationShims:
    def test_api_path_is_warning_free(self):
        config = LoadConfig(n_workers=40, n_tasks=10, shards=(1, 1), grid_nx=4, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            report = LoadGenerator(config).run()
        assert report.tasks_total == 10

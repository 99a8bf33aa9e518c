"""Tests for repro.api: wire format, middleware chain, client modes, shims."""

import json
import warnings

import numpy as np
import pytest

from repro.api import (
    AdmissionRejected,
    AssignmentClient,
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
    StreamWindow,
    SubmitTask,
    TaskDecision,
    TokenBucket,
    UnsupportedVersion,
    ValidationFailed,
    WIRE_SCHEMA,
    WIRE_VERSION,
    WindowResult,
    WorkerRegistered,
    from_wire,
    make_backend,
    to_wire,
)
from repro.gateway.codec import (
    decode_stream_batch,
    decode_stream_result,
    encode_stream_batch,
    encode_stream_result,
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


def _one_row(message):
    """The rows a register or submit travels as (a window of one row),
    or those its answer travels as (that window's result)."""
    if isinstance(message, (RegisterWorker, SubmitTask)):
        return StreamWindow.of(0, [message])
    if isinstance(message, TaskDecision):
        return WindowResult(0, [True], [message.task_id], [message.worker_id])
    return WindowResult(0, [False], [message.worker_id], [])


class TestWireFormat:
    #: A register or submit and its answer have no document form either:
    #: past the client they travel as one window row and its result row.
    VERBS = [
        RegisterWorker(worker_id=3, location=(1.0, 2.0), time=0.5),
        SubmitTask(task_id=9, location=(4.0, 5.0), time=1.25),
        WorkerRegistered(worker_id=3),
        TaskDecision(task_id=9, worker_id=None),
        TaskDecision(task_id=9, worker_id=4),
    ]
    DOCUMENTS = [
        Flush(),
        GetReport(wall_seconds=2.5),
        Flushed(),
        ErrorInfo(code="rejected", message="nope", retryable=True, detail="x"),
    ]
    #: A window and its answer have no document form: they travel as rows.
    ROWS = {
        StreamWindow: (encode_stream_batch, lambda p: decode_stream_batch(p)[0]),
        WindowResult: (encode_stream_result, decode_stream_result),
    }
    WINDOWS = [
        StreamWindow.of(
            5,
            [
                RegisterWorker(worker_id=2, location=(1.0, -2.0), time=0.5),
                SubmitTask(task_id=4, location=(3.5, 4.0), time=1.0),
            ],
        ),
        WindowResult(seq=5, is_task=[False, True, True], ids=[2, 4, 6], workers=[2, None]),
    ]

    @pytest.mark.parametrize(
        "message", VERBS + DOCUMENTS + WINDOWS, ids=lambda m: type(m).__name__
    )
    def test_round_trip(self, message):
        """Every message survives its one wire form."""
        if message in self.VERBS:
            message = _one_row(message)
        if type(message) in self.ROWS:
            encode, decode = self.ROWS[type(message)]
            assert decode(encode(message)) == message
            return
        doc = to_wire(message)
        assert doc["schema"] == WIRE_SCHEMA
        assert doc["version"] == WIRE_VERSION
        assert from_wire(doc) == message

    def test_wire_is_json_serializable(self):
        for message in self.DOCUMENTS:
            assert from_wire(json.loads(json.dumps(to_wire(message)))) == message

    def test_windows_have_no_document_form(self):
        for message in self.WINDOWS:
            with pytest.raises(ValidationFailed):
                to_wire(message)

    def test_verbs_have_no_document_form(self):
        for message in self.VERBS:
            with pytest.raises(ValidationFailed) as info:
                to_wire(message)
            assert "no wire document form" in info.value.message

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
        # the retired batch, envelope and window document kinds are as
        # unknown as an invented one, even with the body they used to
        # carry (a window and its answer travel only as rows)
        window = {"seq": 0, "is_task": [True], "ids": [1]}
        for kind, body in (
            ("teleport_worker", {"items": []}),
            ("batch", {"items": []}),
            ("batch_result", {"items": []}),
            ("envelope", {"seq": 0, "item": to_wire(Flush())}),
            ("envelope_result", {"seq": 0, "item": to_wire(Flushed())}),
            ("stream_window", {**window, "xy": [[0.0, 0.0]], "times": [0.0]}),
            ("window_result", {**window, "workers": [None]}),
            ("register_worker", {"worker_id": 1, "location": [0.0, 0.0], "time": 0.0}),
            ("submit_task", {"task_id": 1, "location": [0.0, 0.0], "time": 0.0}),
            ("worker_registered", {"worker_id": 1}),
            ("task_decision", {"task_id": 1, "worker_id": None}),
        ):
            doc = to_wire(Flush())
            doc["kind"] = kind
            doc["body"] = body
            with pytest.raises(ValidationFailed) as info:
                from_wire(doc)
            assert info.value.code == "invalid-request"
            assert "unknown message kind" in str(info.value)

    def test_malformed_body_rejected(self):
        doc = to_wire(ErrorInfo(code="rejected", message="nope"))
        del doc["body"]["code"]
        with pytest.raises(ValidationFailed):
            from_wire(doc)

    def test_non_message_rejected(self):
        with pytest.raises(ValidationFailed):
            to_wire({"not": "a message"})


class TestRequestValidator:
    def check(self, request):
        RequestValidator().validate(request)

    def test_accepts_good_requests(self):
        self.check(StreamWindow.of(0, [RegisterWorker(worker_id=0, location=(1.0, 1.0))]))
        self.check(Flush())

    @pytest.mark.parametrize(
        "bad",
        [
            # a sync register or submit is validated as a window of one row
            StreamWindow.of(0, [RegisterWorker(worker_id=-1, location=(0.0, 0.0))]),
            StreamWindow.of(0, [RegisterWorker(worker_id=True, location=(0.0, 0.0))]),
            StreamWindow.of(0, [RegisterWorker(worker_id=0, location=(float("nan"), 0.0))]),
            StreamWindow.of(0, [SubmitTask(task_id=0, location=(float("inf"), 0.0))]),
            StreamWindow.of(0, [SubmitTask(task_id=0, location=(0.0, 0.0), time=-1.0)]),
            StreamWindow.of(-1, []),  # a stream seq is non-negative
            StreamWindow.of(True, []),  # and an int, not a bool
            WorkerRegistered(worker_id=0),  # a response is no request
        ],
    )
    def test_rejects_bad_requests(self, bad):
        with pytest.raises(ValidationFailed):
            self.check(bad)

    def test_location_must_be_a_pair(self):
        with pytest.raises(ValidationFailed):
            RegisterWorker(worker_id=0, location=(1.0, 2.0, 3.0))


def _run(bad_at=None, **bad) -> list:
    """Five alternating register/submit verbs; ``bad`` replaces fields of
    the verb at ``bad_at``."""
    verbs = []
    for i in range(5):
        fields = dict(location=(10.0 + i, 20.0), time=float(i))
        if i == bad_at:
            fields.update(bad)
        if i % 2:
            verbs.append(SubmitTask(task_id=i, **fields))
        else:
            verbs.append(RegisterWorker(worker_id=i, **fields))
    return verbs


class TestWindowValidation:
    """A window is checked in one pass; its first bad row fails with the
    code and message its verb's own sync call gets."""

    def test_accepts_a_good_window(self):
        RequestValidator().validate(StreamWindow.of(0, _run()))
        RequestValidator().validate(StreamWindow.of(3, []))

    _TIME = "event time must be finite and >= 0, got "

    @pytest.mark.parametrize(
        "bad_at, bad",
        [
            # each bad row's fields, and the message its failure pins
            (0, ({"worker_id": -1}, "worker_id must be a non-negative int64, got -1")),
            (2, ({"worker_id": True}, "worker_id must be a non-negative int64, got True")),
            (1, ({"task_id": 2.0}, "task_id must be a non-negative int64, got 2.0")),
            (3, ({"location": (float("nan"), 0.0)}, "location must be finite, got (nan, 0.0)")),
            (4, ({"location": (0.0, float("inf"))}, "location must be finite, got (0.0, inf)")),
            (1, ({"time": -1.0}, _TIME + "-1.0")),
            (3, ({"time": float("inf")}, _TIME + "inf")),
            (2, ({"time": "x"}, _TIME + "'x'")),
            (4, ({"time": None}, _TIME + "None")),
            (0, ({"time": 10**400}, _TIME + repr(10**400))),
        ],
    )
    def test_first_bad_row_fails_like_its_verb(self, bad_at, bad):
        bad, message = bad
        ids = {k: v for k, v in bad.items() if k.endswith("_id")}
        verbs = _run(bad_at, **{k: v for k, v in bad.items() if k not in ids})
        if ids:
            cls = type(verbs[bad_at])
            fields = dict(location=verbs[bad_at].location, time=verbs[bad_at].time)
            verbs[bad_at] = cls(**ids, **fields)
        # the verb's own sync call is a window of that one row
        with pytest.raises(ValidationFailed) as alone:
            RequestValidator().validate(StreamWindow.of(0, [verbs[bad_at]]))
        with pytest.raises(ValidationFailed) as windowed:
            RequestValidator().validate(StreamWindow.of(0, verbs))
        assert windowed.value.code == alone.value.code == "invalid-request"
        assert windowed.value.message == alone.value.message == message

    def test_negative_window_seq_is_refused(self):
        with pytest.raises(ValidationFailed):
            RequestValidator().validate(StreamWindow.of(-1, _run()))

    def test_window_seq_past_int64_is_refused(self):
        RequestValidator().validate(StreamWindow.of(2**63 - 1, []))
        with pytest.raises(ValidationFailed) as info:
            RequestValidator().validate(StreamWindow.of(2**63, _run()))
        assert "int64" in info.value.message

    def test_columns_must_agree_in_length(self):
        with pytest.raises(ValidationFailed):
            StreamWindow(0, [False], [1, 2], [(0.0, 0.0)], [0.0])
        with pytest.raises(ValidationFailed):
            StreamWindow(0, [False], [1], [(0.0, 0.0, 0.0)], [0.0])

    def test_row_kinds_must_be_bools(self):
        window = StreamWindow(0, [2], [1], [(0.0, 0.0)], [0.0])
        with pytest.raises(ValidationFailed):
            RequestValidator().validate(window)


@pytest.mark.parametrize("kind", ["inprocess", "sharded", "remote"])
@pytest.mark.parametrize("when", ["x", None], ids=["str", "none"])
class TestNonNumericTime:
    """A non-numeric event time is an invalid request on every path and
    every backend, never a raw ``TypeError``."""

    @staticmethod
    def _client(kind, stack):
        spec = small_spec()
        if kind == "remote":
            from repro.gateway import GatewayConfig, RemoteBackend, serve_gateway

            gateway = stack.enter_context(serve_gateway(GatewayConfig(spec=spec)))
            backend = RemoteBackend(spec, address=gateway.address)
        else:
            backend = make_backend(kind, spec)
        return stack.enter_context(AssignmentClient(backend))

    @pytest.mark.parametrize(
        "request_",
        [
            lambda t: RegisterWorker(worker_id=1, location=(1, 1), time=t),
            lambda t: SubmitTask(task_id=1, location=(1, 1), time=t),
        ],
        ids=["register", "submit"],
    )
    def test_call(self, kind, when, request_):
        from contextlib import ExitStack

        with ExitStack() as stack:
            client = self._client(kind, stack)
            with pytest.raises(ValidationFailed) as info:
                client.call(request_(when))
            assert info.value.code == "invalid-request"

    def test_stream(self, kind, when):
        from contextlib import ExitStack

        requests = _run(2, time=when)
        with ExitStack() as stack:
            client = self._client(kind, stack)
            with pytest.raises(ValidationFailed) as info:
                list(client.stream(requests, window=4))
            assert info.value.code == "invalid-request"
            assert repr(when) in info.value.message


def _submit(task_id: int) -> StreamWindow:
    """A sync submit as the chain sees it: a window of one row."""
    return StreamWindow.of(task_id, [SubmitTask(task_id=task_id, location=(0.0, 0.0))])


class TestTokenBucket:
    def test_admits_then_rejects_then_refills(self):
        clock = {"t": 0.0}
        bucket = TokenBucket(rate=1.0, burst=2, clock=lambda: clock["t"])
        ok = lambda req: bucket(req, lambda r: "served")
        assert ok(_submit(0)) == "served"
        assert ok(_submit(1)) == "served"
        with pytest.raises(AdmissionRejected) as excinfo:
            ok(_submit(2))
        assert excinfo.value.retryable
        assert excinfo.value.retry_after_s > 0
        clock["t"] = 1.5  # refill 1.5 tokens
        assert ok(_submit(2)) == "served"
        assert bucket.admitted == 3
        assert bucket.rejected == 1

    def test_batch_charged_per_item_and_barriers_free(self):
        bucket = TokenBucket(rate=1.0, burst=5, clock=lambda: 0.0)
        window = StreamWindow.of(0, _run()[:3])
        assert TokenBucket.cost_of(window) == 3  # one token per row
        assert TokenBucket.cost_of(Flush()) == 0
        assert TokenBucket.cost_of(GetReport()) == 0
        single = _submit(0)  # a sync call is a window of one row
        assert TokenBucket.cost_of(single) == 1
        assert bucket(window, lambda r: "served") == "served"
        assert bucket(single, lambda r: "served") == "served"
        assert bucket.admitted == 4
        # free barriers pass even with an empty bucket
        bucket2 = TokenBucket(rate=1e-9, burst=1, clock=lambda: 0.0)
        bucket2._tokens = 0.0
        assert bucket2(Flush(), lambda r: "served") == "served"

    def test_a_window_past_the_burst_is_refused_for_good(self):
        """A window costing more tokens than the bucket can ever hold is
        refused at once, not rate-limited: no wait would let it in. It
        is charged nothing, and every offered token is still counted."""
        clock = {"t": 0.0}
        bucket = TokenBucket(rate=1.0, burst=4, clock=lambda: clock["t"])
        window = StreamWindow.of(0, _run())  # five rows
        for _ in range(3):
            with pytest.raises(RequestRejected) as info:
                bucket(window, lambda r: "served")
            assert info.value.code == "rejected"
            assert not info.value.retryable
            assert "burst of 4" in info.value.message
            clock["t"] += 10.0
        assert (bucket.admitted, bucket.rejected) == (0, 15)
        # nothing was charged: a window that fits is admitted whole
        assert bucket(StreamWindow.of(5, _run()[:4]), lambda r: "served") == "served"
        assert (bucket.admitted, bucket.rejected) == (4, 15)


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

    def test_stream_sends_windows_and_lone_barriers(self):
        metrics = LatencyMetrics()
        late = [RegisterWorker(worker_id=10 + i, location=(30.0, 30.0)) for i in range(2)]
        requests = _run() + [Flush()] + late + [GetReport()]
        middleware = [RequestValidator(), metrics, ErrorMapper()]
        with AssignmentClient(InProcessBackend(small_spec()), middleware) as client:
            responses = list(client.stream(requests, window=3))
        calls = metrics.registry.counters(LatencyMetrics.CALLS, label="kind")
        # runs of up to 3 rows; each barrier ends its run and goes alone
        assert calls == {"stream_window": 3, "flush": 1, "get_report": 1}
        assert [type(r).__name__ for r in responses] == [
            "WorkerRegistered",
            "TaskDecision",
            "WorkerRegistered",
            "TaskDecision",
            "WorkerRegistered",
            "Flushed",
            "WorkerRegistered",
            "WorkerRegistered",
            "ReportResult",
        ]
        assert [r.task_id for r in responses if isinstance(r, TaskDecision)] == [1, 3]

    def test_stream_refuses_an_answer_for_another_window(self):
        class Liar(InProcessBackend):
            def batch(self, request):
                result = super().batch(request)
                return WindowResult(result.seq + 1, result.is_task, result.ids, result.workers)

        with AssignmentClient(Liar(small_spec())) as client:
            with pytest.raises(ValidationFailed):
                list(client.stream(_run(), window=8))

    def test_stream_refuses_a_barrier_answered_with_another_type(self):
        class Liar(InProcessBackend):
            def flush(self, request):
                return self.get_report(GetReport())

        with AssignmentClient(Liar(small_spec())) as client:
            with pytest.raises(ValidationFailed):
                list(client.stream(_run() + [Flush()], window=8))

    def test_stream_refuses_items_that_are_neither_verbs_nor_barriers(self):
        window = StreamWindow.of(0, _run())
        with AssignmentClient(InProcessBackend(small_spec())) as client:
            with pytest.raises(ValidationFailed) as info:
                list(client.stream([window]))
            assert info.value.code == "invalid-request"
            assert client.report().workers_registered == 0  # never sent

    def test_stream_responses_reuse_the_request_ids(self):
        ids = [10**12 + i for i in range(4)]
        requests = [RegisterWorker(worker_id=i, location=(5.0, 5.0)) for i in ids[:2]]
        requests += [SubmitTask(task_id=i, location=(5.0, 5.0)) for i in ids[2:]]
        with AssignmentClient(make_backend("sharded", small_spec())) as client:
            responses = list(client.stream(requests))
        assert all(r.worker_id is ids[k] for k, r in enumerate(responses[:2]))
        assert all(r.task_id is ids[2 + k] for k, r in enumerate(responses[2:]))
        assigned = [r.worker_id for r in responses[2:] if r.worker_id is not None]
        assert assigned and all(any(w is i for i in ids[:2]) for w in assigned)

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
        # a sync register reaches the chain as a window of one row
        assert calls == {"stream_window": 1, "flush": 1}
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

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("epsilon", float("nan")),
            ("epsilon", float("inf")),
            ("budget_capacity", float("nan")),
        ],
    )
    def test_spec_validation_rejects_non_finite_budgets(self, field, bad):
        # NaN compares False both ways, so unchecked it would turn the cap off
        with pytest.raises(ValueError):
            small_spec(**{field: bad})

    def test_spec_infinite_capacity_means_no_cap(self):
        spec = small_spec(budget_capacity=float("inf"))
        with AssignmentClient(make_backend("sharded", spec)) as client:
            client.register_worker(1, (10.0, 10.0))
            assert client.submit_task(1, (10.0, 10.0)) == 1

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

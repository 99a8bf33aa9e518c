"""Backend parity: identical assignments and reports across all backends.

The acceptance gate of the API redesign: the same
:class:`~repro.api.ServiceSpec` and request stream must produce
bit-identical ``(task, worker)`` assignments — and matching report
counters/audit values — whether served by the in-process reference, the
sharded engine, a remote client speaking the framed wire protocol over
a real loopback socket, or a worker mesh of standalone processes dialed
in over loopback (including across mesh checkpoint cuts and odd
dispatch-chunk boundaries).
"""

from contextlib import ExitStack

import pytest

from repro.api import (
    ApiError,
    AssignmentClient,
    RegisterWorker,
    RequestRejected,
    ServiceSpec,
    StreamWindow,
    SubmitTask,
    TaskDecision,
    ValidationFailed,
    WorkerRegistered,
    make_backend,
)
from repro.api.conformance import (
    BackendRun,
    build_conformance_stream,
    check_parity,
    run_backend,
    run_conformance,
    run_remote_backend,
)
from repro.gateway import GatewayConfig, RemoteBackend, serve_gateway
from repro.gateway.protocol import (
    BIN1_MAGIC,
    GENERIC_TAG,
    HEADER,
    STREAM_BATCH_TAG,
    STREAM_RESULT_TAG,
)
from repro.geometry import Box

REGION = Box.square(200.0)

MESH_KWARGS = {
    # deliberately awkward transport shape: odd chunk size, frequent
    # checkpoints — parity must not depend on either
    "mesh": {"n_peers": 2, "chunk_size": 7, "checkpoint_every": 16},
}


def spec_for(shards) -> ServiceSpec:
    return ServiceSpec(
        region=REGION, shards=shards, grid_nx=6, batch_size=8, seed=11
    )

#: One window whose third registration reuses worker 1's id. Every backend
#: must refuse it at that event: the two before it stay applied, and the
#: refused event and the one after it (t=50) never move the clock.
DUPLICATE_BATCH = (
    RegisterWorker(worker_id=1, location=(20.0, 20.0), time=0.0),
    RegisterWorker(worker_id=2, location=(180.0, 180.0), time=1.0),
    RegisterWorker(worker_id=1, location=(30.0, 30.0), time=2.0),
    RegisterWorker(worker_id=3, location=(40.0, 40.0), time=50.0),
)

#: Four workers, then tasks 7, 7 and 8: the second task 7 is refused at
#: its row. The first task 7 stays decided and the clock stays at its
#: time; the refused row and task 8 (t=50) never run.
DUPLICATE_TASK = (
    RegisterWorker(worker_id=0, location=(20.0, 20.0), time=0.0),
    RegisterWorker(worker_id=1, location=(30.0, 20.0), time=1.0),
    RegisterWorker(worker_id=2, location=(20.0, 30.0), time=2.0),
    RegisterWorker(worker_id=3, location=(180.0, 180.0), time=3.0),
    SubmitTask(task_id=7, location=(22.0, 22.0), time=4.0),
    SubmitTask(task_id=7, location=(24.0, 24.0), time=5.0),
    SubmitTask(task_id=8, location=(178.0, 178.0), time=50.0),
)


def _refuse_duplicate(
    backend, requests=DUPLICATE_BATCH, seq: int = 0
) -> tuple[str, BackendRun]:
    """Send ``requests`` as one window at ``seq``; the error code and the
    run after it."""
    with AssignmentClient(backend) as client:
        with pytest.raises(ApiError) as refused:
            client.call(StreamWindow.of(seq, requests))
        report = client.report()
    return refused.value.code, BackendRun(
        name=backend.name, assignments=(), unassigned=(), report=report
    )


def _refusals(spec, kinds, requests, seq: int = 0) -> tuple[list, list]:
    """:func:`_refuse_duplicate` on each backend kind (``remote`` over a
    sharded gateway); the error codes and the runs after them."""
    codes, runs = [], []
    for kind in kinds:
        if kind == "remote":
            config = GatewayConfig(spec=spec, backend="sharded")
            with serve_gateway(config) as server:
                code, run = _refuse_duplicate(
                    RemoteBackend(spec, address=server.address), requests, seq
                )
        else:
            code, run = _refuse_duplicate(
                make_backend(kind, spec, **MESH_KWARGS.get(kind, {})), requests, seq
            )
        codes.append(code)
        runs.append(run)
    return codes, runs


#: Every backend kind that can serve a spec of this lattice shape.
REFUSING_KINDS = [
    ((1, 1), ("inprocess", "sharded", "remote", "mesh")),
    ((2, 2), ("sharded", "remote", "mesh")),
]


def _sync_run(backend, requests) -> BackendRun:
    """:func:`~repro.api.conformance.run_backend` with one sync
    ``client.call`` per request instead of a stream."""
    with AssignmentClient(backend) as client:
        pairs, misses = [], []
        for request in requests:
            response = client.call(request)
            if isinstance(response, TaskDecision):
                if response.worker_id is None:
                    misses.append(response.task_id)
                else:
                    pairs.append((response.task_id, response.worker_id))
        client.flush()
        report = client.report()
    return BackendRun(backend.name, tuple(pairs), tuple(misses), report)


class _TagRecorder(RemoteBackend):
    """A gateway connection that records the bin1 tag of every frame it
    writes and reads (the JSON handshake frames carry none)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.sent: list[int] = []
        self.received: list[int] = []

    def _send_frame(self, frame: bytes) -> None:
        if frame[HEADER.size] == BIN1_MAGIC:
            self.sent.append(frame[HEADER.size + 2])
        super()._send_frame(frame)

    def _recv_payload(self) -> bytes:
        payload = super()._recv_payload()
        if payload[0] == BIN1_MAGIC:
            self.received.append(payload[2])
        return payload


def _backend(stack: ExitStack, kind: str, spec, served_by=None):
    """A fresh backend of ``kind``; a ``remote`` one connects to a
    gateway over a ``served_by`` backend, which ``stack`` stops."""
    if kind != "remote":
        return make_backend(kind, spec, **MESH_KWARGS.get(kind, {}))
    config = GatewayConfig(
        spec=spec, backend=served_by, backend_kwargs=MESH_KWARGS.get(served_by, {})
    )
    return RemoteBackend(spec, address=stack.enter_context(serve_gateway(config)).address)


#: (backend kind, lattice, server-side backend behind a gateway)
SYNC_CASES = pytest.mark.parametrize(
    "kind, shards, served_by",
    [
        ("inprocess", (1, 1), None),
        ("sharded", (2, 2), None),
        ("mesh", (2, 2), None),
        ("remote", (2, 2), "sharded"),
        ("remote", (2, 2), "mesh"),
    ],
    ids=["inprocess", "sharded", "mesh", "remote-sharded", "remote-mesh"],
)


class TestConformance:
    @SYNC_CASES
    def test_sync_calls_decide_as_the_stream(self, kind, shards, served_by):
        """One ``client.call`` per request — each register or submit a
        window of one row — gives the streamed run's decisions and
        report on every backend, across a socket too."""
        spec = spec_for(shards)
        stream = build_conformance_stream(REGION, 60, 45, seed=7)
        with ExitStack() as stack:
            streamed = run_backend(_backend(stack, kind, spec, served_by), stream, window=16)
        with ExitStack() as stack:
            synced = _sync_run(_backend(stack, kind, spec, served_by), stream)
        assert check_parity([streamed, synced]) == []
        assert synced.assignments
        assert len(synced.assignments) + len(synced.unassigned) == 45

    @SYNC_CASES
    def test_sync_calls_keep_their_types_and_codes(self, kind, shards, served_by):
        """A sync register answers a ``WorkerRegistered`` and a submit a
        ``TaskDecision``; a repeated worker or task id is ``rejected``,
        and a negative id is ``invalid-request`` with its message."""
        with ExitStack() as stack:
            backend = _backend(stack, kind, spec_for(shards), served_by)
            client = stack.enter_context(AssignmentClient(backend))
            assert client.register_worker(1, (20.0, 20.0)) == WorkerRegistered(1)
            assert client.call(SubmitTask(5, (21.0, 20.0))) == TaskDecision(5, 1)
            for again in (RegisterWorker(1, (30.0, 30.0)), SubmitTask(5, (30.0, 30.0))):
                with pytest.raises(RequestRejected) as info:
                    client.call(again)
                assert info.value.code == "rejected"
            with pytest.raises(ValidationFailed) as info:
                client.submit_task(-1, (0.0, 0.0))
            assert info.value.code == "invalid-request"
            assert info.value.message == "task_id must be a non-negative int64, got -1"
            assert client.report().workers_registered == 1

    @pytest.mark.parametrize("pipeline", [1, 4])
    def test_register_and_submit_frames_ride_rows(self, pipeline):
        """Every frame a gateway connection writes for a register or
        submit, sync or streamed, is a window's rows (tag 0x07), and
        every answer to one is result rows (tag 0x18); only the flush,
        the report and the goodbye are documents."""
        spec = spec_for((2, 2))
        stream = build_conformance_stream(REGION, 30, 20, seed=5)
        with serve_gateway(GatewayConfig(spec=spec, backend="sharded")) as server:
            backend = _TagRecorder(spec, address=server.address)
            with AssignmentClient(backend) as client:
                for request in stream[:10]:
                    client.call(request)
                list(client.stream(stream[10:], window=8, pipeline=pipeline))
                client.flush()
                client.report()
        units = 10 + 40 // 8  # ten sync calls, five stream windows
        assert backend.sent == [STREAM_BATCH_TAG] * units + [GENERIC_TAG] * 3
        assert backend.received == [STREAM_RESULT_TAG] * units + [GENERIC_TAG] * 2

    def test_all_backends_agree_unsharded(self):
        result = run_conformance(
            spec_for((1, 1)),
            requests=build_conformance_stream(REGION, 60, 45, seed=7),
            backend_kwargs=MESH_KWARGS,
        )
        assert [run.name for run in result.runs] == [
            "inprocess",
            "sharded",
            "remote",
            "mesh",
        ]
        assert result.ok, "\n".join(result.problems)
        assert len(result.runs[0].assignments) > 0

    def test_lattice_backends_agree_including_remote(self):
        result = run_conformance(
            spec_for((2, 2)),
            requests=build_conformance_stream(REGION, 80, 60, seed=3),
            backend_kwargs=MESH_KWARGS,
        )
        assert [run.name for run in result.runs] == [
            "sharded",
            "remote",
            "mesh",
        ]
        assert result.ok, "\n".join(result.problems)

    @pytest.mark.parametrize("pipeline", [1, 4])
    def test_remote_over_mesh_matches_with_barriers(self, pipeline):
        """The hardest deployment shape: a remote client over loopback,
        the gateway serving a worker mesh with odd chunk joints and
        checkpoint cuts mid-stream, with up to four windows in flight
        (each journaled window releases its gateway barrier before its
        outcomes return). Still bit-identical."""
        spec = spec_for((2, 2))
        stream = build_conformance_stream(REGION, 60, 45, seed=13)
        local = run_backend(
            make_backend("sharded", spec), stream, window=16
        )
        remote = run_remote_backend(
            spec,
            stream,
            window=16,
            pipeline=pipeline,
            backend="mesh",
            backend_kwargs={"n_peers": 2, "chunk_size": 21, "checkpoint_every": 64},
        )
        assert check_parity([local, remote]) == [], "remote-over-mesh diverged"

    @pytest.mark.parametrize("shards, kinds", REFUSING_KINDS)
    def test_rejected_duplicate_moves_every_clock_alike(self, shards, kinds):
        spec = ServiceSpec(
            region=REGION, shards=shards, grid_nx=4, batch_size=8, seed=1
        )
        codes, runs = _refusals(spec, kinds, DUPLICATE_BATCH)
        assert codes == [RequestRejected.code] * len(kinds)
        assert check_parity(runs) == []
        report = runs[0].report
        assert report.sim_duration == 1.0
        assert report.workers_registered == 2

    @pytest.mark.parametrize("shards, kinds", REFUSING_KINDS)
    def test_repeated_task_id_is_refused_at_its_row(self, shards, kinds):
        """A task id names one decision: its second submission is refused
        at that row on every backend, the mesh included (whose outcome
        table keeps one answer per task id)."""
        spec = ServiceSpec(
            region=REGION, shards=shards, grid_nx=4, batch_size=8, seed=1
        )
        codes, runs = _refusals(spec, kinds, DUPLICATE_TASK)
        assert codes == [RequestRejected.code] * len(kinds)
        assert check_parity(runs) == []
        report = runs[0].report
        assert report.sim_duration == 4.0
        assert report.workers_registered == 4
        assert report.tasks_assigned + report.tasks_unassigned == 1

    def test_ids_outside_int64_are_invalid_on_every_backend(self):
        """Ids travel as int64 on the wire, so an id of 2**63 is refused
        as ``invalid-request`` by every backend — including a gateway
        whose client sent it unchecked — and nothing of its window runs."""
        spec = ServiceSpec(
            region=REGION, shards=(1, 1), grid_nx=4, batch_size=8, seed=1
        )
        for verb in (
            RegisterWorker(worker_id=2**63, location=(20.0, 20.0), time=1.0),
            SubmitTask(task_id=2**63, location=(20.0, 20.0), time=1.0),
        ):
            requests = (RegisterWorker(worker_id=1, location=(30.0, 30.0), time=0.0), verb)
            kinds = ("inprocess", "sharded", "remote", "mesh")
            codes, runs = _refusals(spec, kinds, requests)
            assert codes == ["invalid-request"] * len(kinds)
            assert check_parity(runs) == []
            assert runs[0].report.workers_registered == 0
            with serve_gateway(GatewayConfig(spec=spec, backend="sharded")) as server:
                remote = RemoteBackend(spec, address=server.address)
                with AssignmentClient(remote, middleware=[]) as client:
                    with pytest.raises(ApiError) as refused:
                        client.call(StreamWindow.of(0, requests))
            assert refused.value.code == "invalid-request"

    def test_window_seq_past_int64_is_invalid_on_every_backend(self):
        """A window's seq is held to int64 like an id: a seq of 2**63 is
        refused as ``invalid-request`` by every backend — including a
        gateway whose client sent it unchecked (the u64 head carries it,
        the server's validator refuses it) — and nothing of its window
        runs."""
        spec = ServiceSpec(
            region=REGION, shards=(1, 1), grid_nx=4, batch_size=8, seed=1
        )
        requests = (RegisterWorker(worker_id=1, location=(30.0, 30.0), time=0.0),)
        kinds = ("inprocess", "sharded", "remote", "mesh")
        codes, runs = _refusals(spec, kinds, requests, seq=2**63)
        assert codes == ["invalid-request"] * len(kinds)
        assert check_parity(runs) == []
        assert runs[0].report.workers_registered == 0
        with serve_gateway(GatewayConfig(spec=spec, backend="sharded")) as server:
            remote = RemoteBackend(spec, address=server.address)
            with AssignmentClient(remote, middleware=[]) as client:
                with pytest.raises(ApiError) as refused:
                    client.call(StreamWindow.of(2**63, requests))
                assert client.report().workers_registered == 0
        assert refused.value.code == "invalid-request"

    def test_inprocess_skipped_on_lattice_specs(self):
        result = run_conformance(
            spec_for((2, 1)),
            backend_kinds=("inprocess",),
        )
        # nothing ran, so parity cannot be claimed
        assert not result.ok

    def test_parity_includes_unassigned_tasks(self):
        # tiny worker pool: some tasks must go unassigned identically
        spec = ServiceSpec(
            region=REGION, shards=(1, 1), grid_nx=6, batch_size=4, seed=2
        )
        stream = build_conformance_stream(REGION, 10, 30, seed=5)
        runs = [
            run_backend(make_backend(kind, spec, **MESH_KWARGS.get(kind, {})), stream)
            for kind in ("inprocess", "sharded", "mesh")
        ]
        assert runs[0].unassigned  # the scenario actually exercises misses
        assert check_parity(runs) == []

    def test_parity_detector_catches_differences(self):
        spec = spec_for((1, 1))
        stream = build_conformance_stream(REGION, 40, 30, seed=9)
        a = run_backend(make_backend("inprocess", spec), stream)
        b = run_backend(
            make_backend(
                "inprocess",
                ServiceSpec(
                    region=REGION, shards=(1, 1), grid_nx=6, batch_size=8, seed=12
                ),
            ),
            stream,
        )
        problems = check_parity([a, b])
        assert problems  # different seeds must be flagged, not glossed over


class TestSmokeCli:
    def test_api_smoke_passes(self, capsys):
        from repro.api.__main__ import main

        assert main(["--smoke", "--workers", "40", "--tasks", "30"]) == 0
        out = capsys.readouterr()
        assert "PARITY OK" in out.out
        assert "OK" in out.err

    def test_api_smoke_json(self, capsys):
        import json

        from repro.api.__main__ import main

        assert main(["--workers", "40", "--tasks", "30", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert [case["shards"] for case in doc["cases"]] == [[1, 1], [2, 2]]

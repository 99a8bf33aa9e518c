"""The worker mesh: protocol, journal cursors, parity, crash failover.

The mesh's contract is the cluster's, one socket hop further out:
standalone worker processes dial the coordinator over the gateway wire,
and whatever the transport does — pipelined dispatch, odd chunk joints,
checkpoint barriers, a worker SIGKILLed mid-batch or mid-checkpoint,
even a second kill during the recovery itself — the assignments must
stay bit-identical to the single-process sharded engine.
"""

import os
import signal
import socket
import time

import pytest

from repro.api import ServiceSpec, make_backend
from repro.api.conformance import (
    build_conformance_stream,
    check_parity,
    run_backend,
    run_mesh_failover,
)
from repro.api.errors import ApiError
from repro.cluster.balancer import ClusterRouter
from repro.cluster.dispatch import FamilyJournal
from repro.gateway.protocol import (
    MESH_WORKER_ROLE,
    FrameDecoder,
    encode_frame,
    hello_doc,
    role_feature,
)
from repro.geometry import Box
from repro.mesh import (
    MESH_SCHEMA,
    MESH_VERSION,
    MeshCoordinator,
    OP_KINDS,
    fail_doc,
    op_doc,
    parse_op,
    parse_reply,
    reply_doc,
)
from repro.service.events import TaskArrival, WorkerArrival
from repro.service.sharding import ShardMap

REGION = Box.square(200.0)


def spec_for(shards=(2, 2), **kw) -> ServiceSpec:
    kw.setdefault("grid_nx", 6)
    kw.setdefault("batch_size", 8)
    kw.setdefault("seed", 11)
    return ServiceSpec(region=REGION, shards=shards, **kw)


# --------------------------------------------------------------------- #
# protocol                                                               #
# --------------------------------------------------------------------- #


class TestMeshProtocol:
    def test_op_round_trip(self):
        for op in OP_KINDS:
            doc = op_doc(op, 7, {"key": "s0"})
            assert doc["schema"] == MESH_SCHEMA
            assert doc["version"] == MESH_VERSION
            assert parse_op(doc) == (op, 7, {"key": "s0"})

    def test_reply_and_fail_round_trip(self):
        kind, seq, body = parse_reply(reply_doc(3, {"results": []}))
        assert (kind, seq, body) == ("reply", 3, {"results": []})
        kind, seq, body = parse_reply(fail_doc(9, "rejected", "nope", "why"))
        assert kind == "fail"
        assert seq == 9
        assert body == {"code": "rejected", "message": "nope", "detail": "why"}

    def test_unknown_op_is_refused_at_build_time(self):
        with pytest.raises(ValueError):
            op_doc("format-disk", 1)

    def test_damaged_envelopes_map_to_stable_codes(self):
        cases = [
            "not a dict",
            {},
            {"schema": "repro.gateway", "version": 1, "kind": "ping",
             "seq": 0, "body": {}},
            {"schema": MESH_SCHEMA, "version": 99, "kind": "ping",
             "seq": 0, "body": {}},
            {"schema": MESH_SCHEMA, "version": 1, "kind": "levitate",
             "seq": 0, "body": {}},
            {"schema": MESH_SCHEMA, "version": 1, "kind": "ping",
             "seq": -4, "body": {}},
            {"schema": MESH_SCHEMA, "version": 1, "kind": "ping",
             "seq": "zero", "body": {}},
            {"schema": MESH_SCHEMA, "version": 1, "kind": "ping",
             "seq": 0, "body": []},
        ]
        for doc in cases:
            with pytest.raises(ApiError) as err:
                parse_op(doc)
            assert err.value.code in ("invalid-request", "unsupported-version")

    def test_reply_parser_rejects_op_kinds(self):
        with pytest.raises(ApiError):
            parse_reply(op_doc("ping", 0))


# --------------------------------------------------------------------- #
# the shared journal (absolute cursors are what failover replays on)     #
# --------------------------------------------------------------------- #


def _journal(shards=(2, 1)) -> FamilyJournal:
    return FamilyJournal(ClusterRouter(ShardMap(REGION, *shards)))


def _worker(wid, x, y):
    return WorkerArrival(time=0.0, worker_id=wid, location=(x, y))


def _task(tid, x, y):
    return TaskArrival(time=1.0, task_id=tid, location=(x, y))


class TestFamilyJournal:
    def test_cohorts_merge_until_a_task_cuts(self):
        j = _journal()
        # three workers then a task in the left cell: one cohort op, cut
        j.absorb([_worker(0, 10, 100), _worker(1, 20, 100),
                  _task(0, 15, 100), _worker(2, 30, 100)])
        ops = j.take(0)
        kinds = [op[0] for op in ops]
        assert kinds == ["w", "t", "w"]
        assert ops[0][2] == [0, 1]  # merged cohort
        assert ops[2][2] == [2]  # post-task arrival opens a new cohort

    def test_take_honours_absolute_upto_and_rewind(self):
        j = _journal()
        j.absorb([_worker(i, 10, 100) for i in range(3)])
        j.absorb([_task(0, 15, 100)])
        mark = j.end(0)
        j.absorb([_task(1, 12, 100)])
        first = j.take(0, mark)
        assert len(first) > 0
        assert j.take(0, mark) == []  # cursor moved past the mark
        rest = j.take(0)
        assert [op[0] for op in rest] == ["t"]
        j.rewind(0)
        replay = j.take(0)
        assert replay == first + rest  # base never truncated: full replay

    def test_truncate_keeps_positions_absolute(self):
        j = _journal()
        j.absorb([_worker(0, 10, 100), _task(0, 15, 100)])
        mark = j.end(0)
        j.take(0, mark)
        j.truncate(0, mark)
        j.absorb([_task(1, 12, 100)])
        assert j.end(0) == mark + 1  # positions grow past the old mark
        j.rewind(0)
        # replay serves only the retained suffix, not the truncated ops
        assert [op[0] for op in j.take(0)] == ["t"]

    def test_duplicate_worker_ids_are_refused(self):
        j = _journal()
        j.absorb([_worker(0, 10, 100)])
        with pytest.raises(ValueError):
            j.absorb([_worker(0, 99, 100)])


# --------------------------------------------------------------------- #
# parity (fork workers over loopback sockets)                            #
# --------------------------------------------------------------------- #


class TestMeshParity:
    def test_mesh_matches_sharded_with_odd_chunks_and_checkpoints(self):
        spec = spec_for((2, 2))
        stream = build_conformance_stream(REGION, 40, 30, seed=3)
        reference = run_backend(make_backend("sharded", spec), stream, window=16)
        mesh = run_backend(
            make_backend(
                "mesh", spec, n_peers=2, chunk_size=13, checkpoint_every=32
            ),
            stream,
            window=16,
        )
        assert check_parity([reference, mesh]) == []

    def test_telemetry_shape_after_a_run(self):
        spec = spec_for((2, 2))
        stream = build_conformance_stream(REGION, 30, 20, seed=5)
        backend = make_backend(
            "mesh", spec, n_peers=2, chunk_size=13, checkpoint_every=24
        )
        run_backend(backend, stream, window=16)
        telemetry = backend.coordinator.telemetry()
        assert telemetry["failovers"] == 0
        assert telemetry["rejected_handshakes"] == 0
        assert len(telemetry["peers"]) == 2
        owned = []
        for peer in telemetry["peers"].values():
            assert peer["alive"]
            assert peer["calls"] > 0
            assert peer["dispatch_depth"]["count"] > 0
            owned += peer["families"]
        assert sorted(owned) == [0, 1, 2, 3]  # every family placed once
        assert telemetry["snapshot_bytes"]["count"] > 0  # checkpoints ran
        assert telemetry["checkpoint_seconds"]["count"] > 0
        assert telemetry["scheduler"]["submitted"] > 0
        assert telemetry["scheduler"]["barriers"] > 0


# --------------------------------------------------------------------- #
# crash failover                                                         #
# --------------------------------------------------------------------- #


class TestMeshFailover:
    def test_sigkill_mid_batch_is_bit_identical(self):
        spec = spec_for((2, 2))
        stream = build_conformance_stream(REGION, 40, 30, seed=3)
        reference = run_backend(make_backend("sharded", spec), stream, window=16)
        run, failovers = run_mesh_failover(
            spec, stream, n_peers=3, chunk_size=13, checkpoint_every=32,
            window=16,
        )
        assert failovers >= 1
        assert check_parity([reference, run]) == []

    def test_sigkill_mid_checkpoint_is_bit_identical(self):
        spec = spec_for((2, 2))
        stream = build_conformance_stream(REGION, 40, 30, seed=9)
        reference = run_backend(make_backend("sharded", spec), stream, window=16)
        backend = make_backend(
            "mesh", spec, n_peers=2, chunk_size=11, checkpoint_every=16
        )
        killed = []

        def kill_during_checkpoint(key):
            # fires after each snapshot op: the victim dies with part of
            # the checkpoint already taken; nothing may be committed
            if not killed:
                killed.append(key)
                proc = backend.workers[0]
                os.kill(proc.pid, signal.SIGKILL)
                proc.join(timeout=10.0)

        def arm(coordinator):
            coordinator._test_mid_checkpoint = kill_during_checkpoint

        mesh = _run_with_hook(backend, stream, arm)
        assert killed, "checkpoint cadence never fired; test is vacuous"
        assert backend_failovers(backend) >= 1
        assert check_parity([reference, mesh]) == []

    def test_second_kill_during_recovery_still_converges(self):
        spec = spec_for((2, 2))
        stream = build_conformance_stream(REGION, 40, 30, seed=13)
        reference = run_backend(make_backend("sharded", spec), stream, window=16)
        backend = make_backend(
            "mesh", spec, n_peers=3, chunk_size=11, checkpoint_every=32
        )
        # pids we SIGKILLed ourselves; is_alive() is not trustworthy here
        # (the first victim lingers as a zombie at hook time)
        killed_pids = set()
        second_kill = []

        def first_kill():
            killed_pids.add(backend_pid(backend, 0))
            backend.kill_worker(0)

        def kill_a_survivor(dead_name):
            # the failover handler just reassigned the dead peer's
            # families; kill another worker while that recovery is live
            if second_kill:
                return
            for proc in backend.workers:
                if proc.pid not in killed_pids:
                    killed_pids.add(proc.pid)
                    second_kill.append(proc.pid)
                    os.kill(proc.pid, signal.SIGKILL)
                    proc.join(timeout=10.0)
                    return

        def arm(coordinator):
            coordinator._test_on_failover = kill_a_survivor

        mesh = _run_with_hook(backend, stream, arm, kill_first=first_kill)
        assert second_kill, "recovery never ran; the double-kill is vacuous"
        assert backend_failovers(backend) >= 2
        assert check_parity([reference, mesh]) == []


def backend_failovers(backend) -> int:
    return backend.coordinator.failovers


def backend_pid(backend, index: int) -> int:
    return backend.workers[index].pid


def _run_with_hook(backend, requests, arm, kill_first=None):
    """run_backend with a coordinator hook armed after open, plus an
    optional mid-stream first kill."""
    from repro.api.client import AssignmentClient
    from repro.api.conformance import BackendRun
    from repro.api.messages import TaskDecision

    pairs, misses = [], []
    with AssignmentClient(backend) as client:
        arm(backend.coordinator)
        answered = 0
        for response in client.stream(requests, window=16):
            answered += 1
            if isinstance(response, TaskDecision):
                if response.worker_id is None:
                    misses.append(response.task_id)
                else:
                    pairs.append((response.task_id, response.worker_id))
            if kill_first is not None and answered == len(requests) // 2:
                kill_first()
        client.flush()
        report = client.report()
    return BackendRun(
        name="mesh-hooked",
        assignments=tuple(pairs),
        unassigned=tuple(misses),
        report=report,
    )


# --------------------------------------------------------------------- #
# coordinator handshake discipline                                       #
# --------------------------------------------------------------------- #


def _exchange_hello(address, doc) -> dict:
    """Send one frame to the coordinator; return its single answer frame
    and assert the connection is closed afterwards."""
    with socket.create_connection(address, timeout=10.0) as sock:
        sock.sendall(encode_frame(doc))
        decoder = FrameDecoder()
        frames: list = []
        while True:
            data = sock.recv(65536)
            if not data:
                break
            frames.extend(decoder.feed(data))
        assert len(frames) == 1
        return frames[0]


class TestCoordinatorHandshake:
    @pytest.fixture()
    def coordinator(self):
        coordinator = MeshCoordinator(REGION, shards=(2, 2), expected_workers=1)
        coordinator.listen()
        yield coordinator
        coordinator.close()

    def test_junk_hello_answers_a_stable_code_then_closes(self, coordinator):
        hello = hello_doc(features=(role_feature(MESH_WORKER_ROLE),))
        hello["surprise"] = True  # unknown top-level key: junk, not future
        answer = _exchange_hello(coordinator.address, hello)
        assert answer["body"]["code"] == "invalid-request"
        assert coordinator.rejected_handshakes == 1

    def test_roleless_hello_is_refused(self, coordinator):
        answer = _exchange_hello(coordinator.address, hello_doc())
        assert answer["body"]["code"] == "invalid-request"
        assert "role" in answer["body"]["message"]

    def test_foreign_schema_maps_to_unsupported_version(self, coordinator):
        hello = hello_doc(features=(role_feature(MESH_WORKER_ROLE),))
        hello["schema"] = "repro.gateway2"
        answer = _exchange_hello(coordinator.address, hello)
        assert answer["body"]["code"] == "unsupported-version"

    def test_close_wakes_the_parked_acceptor(self):
        coordinator = MeshCoordinator(REGION, shards=(2, 2), expected_workers=1)
        coordinator.listen()
        time.sleep(0.5)  # the acceptor thread is parked in accept()
        began = time.monotonic()
        coordinator.close()
        assert time.monotonic() - began < 1.0
        assert not coordinator._acceptor.is_alive()

    def test_rejections_leave_the_coordinator_serving(self, coordinator):
        _exchange_hello(coordinator.address, hello_doc())
        _exchange_hello(coordinator.address, {"schema": None})
        assert coordinator.rejected_handshakes == 2
        # a real worker can still join after the junk
        from repro.mesh import spawn_local_worker

        proc = spawn_local_worker(coordinator.address, name="late-worker")
        try:
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if any(
                    peer["alive"]
                    for peer in coordinator.telemetry()["peers"].values()
                ):
                    break
                time.sleep(0.02)
            else:
                pytest.fail("worker never joined after handshake rejections")
        finally:
            proc.terminate()
            proc.join(timeout=5.0)


# --------------------------------------------------------------------- #
# CLI                                                                    #
# --------------------------------------------------------------------- #


class TestMeshCli:
    def test_worker_requires_connect(self):
        from repro.mesh.__main__ import main

        with pytest.raises(SystemExit):
            main(["--worker"])

    def test_address_parsing(self):
        from repro.mesh.__main__ import _parse_address

        assert _parse_address("127.0.0.1:7700") == ("127.0.0.1", 7700)
        with pytest.raises(ValueError):
            _parse_address("7700")

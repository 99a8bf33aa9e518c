"""The worker mesh: protocol, journal cursors, parity, crash failover.

Standalone worker processes dial the coordinator over the gateway wire,
and whatever the transport does — pipelined dispatch, odd chunk joints,
per-family checkpoint cuts, a worker SIGKILLed mid-batch or mid-cut,
even a second kill during the recovery itself — the assignments must
stay bit-identical to the single-process sharded engine. With the
hot-shard balancer on, a migration changes no answer, and a run with hot
cells split gives the same answers whatever the transport does.
"""

import functools
import os
import signal
import socket
import sys
import threading
import time

import numpy as np
import pytest

from repro.api import ServiceSpec, make_backend, requests_from_events
from repro.api.conformance import (
    build_conformance_stream,
    check_parity,
    run_backend,
    run_mesh_failover,
)
from repro.api.errors import ApiError
from repro.cluster.balancer import BalancerConfig, ClusterRouter, family_of
from repro.cluster.dispatch import FamilyJournal
from repro.cluster.worker import shard_spec
from repro.gateway import codec
from repro.gateway.protocol import (
    HEADER,
    MESH_WORKER_ROLE,
    PACKED_DOC_TAG,
    FrameDecoder,
    encode_frame,
    handshake_frame,
    hello_doc,
    role_feature,
)
from repro.geometry import Box
from repro.mesh import (
    MESH_SCHEMA,
    MESH_VERSION,
    MeshCoordinator,
    MeshError,
    OP_KINDS,
    fail_doc,
    op_doc,
    parse_op,
    parse_reply,
    reply_doc,
)
from repro.mesh import coordinator as mesh_coordinator
from repro.mesh import worker as mesh_worker
from repro.service.events import TaskArrival, WorkerArrival, merge_event_streams
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


class TestWorkerOpLoop:
    def test_an_oversize_reply_answers_fail_for_its_op(self, monkeypatch):
        """A reply over the frame ceiling is a failed op: the worker
        answers a structured ``fail`` for its seq and stops serving,
        instead of dying with no answer at all."""
        monkeypatch.setattr(
            mesh_worker,
            "encode_frame",
            functools.partial(encode_frame, max_frame_bytes=1500),
        )
        ours, theirs = socket.socketpair()
        ours.settimeout(10.0)

        def serve():
            try:
                mesh_worker.serve_connection(theirs, FrameDecoder())
            finally:
                theirs.close()

        server = threading.Thread(target=serve, daemon=True)
        server.start()
        spec = shard_spec(REGION, grid_nx=6, epsilon=1.0, budget_capacity=5.0, seed=11)
        ops = [
            ("configure", {"batch_size": 8}),
            ("create", {"key": "s0", "spec": spec}),
            ("snapshot", {"key": "s0", "mode": "base", "checkpoint": 1}),
        ]
        try:
            for seq, (op, body) in enumerate(ops, start=1):
                ours.sendall(encode_frame(op_doc(op, seq, body)))
            decoder, replies = FrameDecoder(), []
            while data := ours.recv(65536):
                replies.extend(decoder.feed(data))
        finally:
            ours.close()
            server.join(timeout=10.0)
        assert not server.is_alive()
        answers = [parse_reply(doc) for doc in replies]
        assert [(kind, seq) for kind, seq, _ in answers] == [
            ("reply", 1), ("reply", 2), ("fail", 3),
        ]
        assert answers[-1][2]["code"] == "invalid-request"
        assert "frame limit" in answers[-1][2]["message"]


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
        assert j.sent(0) == mark
        assert j.take(0, mark) == []  # cursor moved past the mark
        rest = j.take(0)
        assert [op[0] for op in rest] == ["t"]
        j.rewind(0)
        assert j.sent(0) == 0
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

    def test_truncate_counts_what_it_drops(self):
        j = _journal()
        j.absorb([_worker(0, 10, 100), _task(0, 15, 100), _task(1, 12, 100)])
        j.take(0)
        assert j.truncate(0, 2) == 2  # the cohort op and the first task
        assert j.truncate(0, 2) == 0  # already gone
        assert j.truncate(0, 99) == 1  # clipped at the journal's end
        assert j.truncate(1, 5) == 0  # an untouched family

    def test_duplicate_worker_ids_are_refused(self):
        j = _journal()
        j.absorb([_worker(0, 10, 100)])
        with pytest.raises(ValueError):
            j.absorb([_worker(0, 99, 100)])

    def test_clock_is_the_latest_accepted_event(self):
        j = _journal()
        j.absorb([_worker(0, 10, 100), _task(0, 15, 100)])
        assert j.now == 1.0
        late = WorkerArrival(time=9.0, worker_id=5, location=(10.0, 100.0))
        with pytest.raises(ValueError):
            j.absorb(
                [
                    WorkerArrival(time=3.0, worker_id=1, location=(10.0, 100.0)),
                    WorkerArrival(time=4.0, worker_id=0, location=(10.0, 100.0)),
                    late,
                ]
            )
        # worker 1 was accepted; the refused duplicate and the event
        # after it never moved the clock
        assert j.now == 3.0


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
# per-family checkpoint cuts                                             #
# --------------------------------------------------------------------- #


class TestCheckpointCuts:
    def test_a_held_cut_stalls_only_its_family(self):
        """While one family's cut is held mid-snapshot, a task in another
        family is answered; a task in the held family waits its turn."""
        backend = make_backend(
            "mesh", spec_for((2, 2)), n_peers=2, chunk_size=4, checkpoint_every=4
        )
        held, release, answered = (threading.Event() for _ in range(3))

        def hold(key):
            if family_of(key) == 0 and not held.is_set():
                held.set()
                release.wait(timeout=30.0)

        backend.open()
        try:
            coordinator = backend.coordinator
            coordinator._test_mid_checkpoint = hold
            # four events in family 0 reach the cadence: every family is cut
            coordinator.process(
                [_worker(0, 10, 10), _worker(1, 20, 20), _task(0, 15, 15),
                 _worker(2, 30, 30)]
            )
            assert held.wait(timeout=10.0), "no cut reached family 0"
            coordinator.process(
                [_worker(3, 190, 190), _task(1, 185, 185), _task(2, 12, 12)]
            )
            threading.Thread(
                target=lambda: (coordinator.result_of(1), answered.set()),
                daemon=True,
            ).start()
            assert answered.wait(timeout=5.0), (
                "a task in another family waited behind the held cut"
            )
            assert coordinator.tasks_answered == 2  # task 2 is behind the cut
            release.set()
            assert coordinator.result_of(2) is not None
        finally:
            release.set()
            backend.close()

    @pytest.mark.parametrize(
        "rebase_every, deltas, bases, rebases", [(0, 0, 48, 44), (1, 24, 24, 20)]
    )
    def test_rebase_cap_bounds_every_chain(self, rebase_every, deltas, bases, rebases):
        """12 cut rounds over 4 families: ``rebase_every=0`` takes only
        bases, ``1`` alternates base and delta; answers never change."""
        spec = spec_for((2, 2))
        stream = build_conformance_stream(REGION, 100, 100, seed=5)
        reference = run_backend(make_backend("sharded", spec), stream, window=16)
        stats: dict = {}
        mesh, _ = run_mesh_failover(
            spec, stream, n_peers=2, kill_after=len(stream) + 1, window=16,
            checkpoint_every=16, rebase_every=rebase_every, stats=stats,
        )
        assert check_parity([reference, mesh]) == []
        assert stats["delta_checkpoints"] == deltas
        assert stats["base_checkpoints"] == bases
        assert stats["rebase_total"] == rebases
        assert stats["max_chain_len"] == rebase_every + 1

    def test_snapshots_and_loads_ride_the_generic_layout(self, monkeypatch):
        """Snapshot replies and the ``load`` ops of a failover travel as
        embedded JSON like every other mesh op: no payload the
        coordinator decodes, and no frame it sends, is packed."""
        decoded_tags, sent = [], []
        decode_bin1, encode = codec.decode_bin1, mesh_coordinator.encode_frame

        def spy_decode(payload):
            decoded_tags.append(payload[2])
            return decode_bin1(payload)

        def spy_encode(doc, **kwargs):
            frame = encode(doc, **kwargs)
            sent.append((doc.get("kind"), frame[HEADER.size + 2]))
            return frame

        monkeypatch.setattr(codec, "decode_bin1", spy_decode)
        monkeypatch.setattr(mesh_coordinator, "encode_frame", spy_encode)
        spec = spec_for((2, 2))
        stream = build_conformance_stream(REGION, 40, 30, seed=3)
        reference = run_backend(make_backend("sharded", spec), stream, window=16)
        stats: dict = {}
        mesh, failovers = run_mesh_failover(
            spec, stream, n_peers=2, chunk_size=13, checkpoint_every=16,
            window=16, stats=stats,
        )
        assert check_parity([reference, mesh]) == []
        assert failovers >= 1
        assert stats["base_checkpoints"] + stats["delta_checkpoints"] > 0
        assert "load" in {kind for kind, _ in sent}, "no chain was restored"
        assert PACKED_DOC_TAG not in decoded_tags
        assert PACKED_DOC_TAG not in {tag for _, tag in sent}

    def test_concurrent_cuts_survive_a_kill_under_fast_thread_switching(self):
        """Every family cut at every chunk, on more scheduler threads than
        cores, with the interpreter switching threads often and a worker
        SIGKILLed mid-stream: answers stay bit-identical."""
        spec = spec_for((2, 2))
        stream = build_conformance_stream(REGION, 60, 60, seed=21)
        reference = run_backend(make_backend("sharded", spec), stream, window=16)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            mesh, failovers = run_mesh_failover(
                spec, stream, n_peers=2, chunk_size=8, checkpoint_every=8,
                rebase_every=2, window=16,
            )
        finally:
            sys.setswitchinterval(interval)
        assert failovers >= 1
        assert check_parity([reference, mesh]) == []


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
            # fires before each snapshot op of a cut: kill the peer that
            # holds the cut, once the family has a chain to restore. The
            # interrupted cut must commit nothing and rerun on the survivor
            coordinator = backend.coordinator
            if killed or key not in coordinator._checkpoints:
                return
            killed.append(key)
            owner = coordinator._peers[coordinator.ownership[family_of(key)]]
            proc = backend.workers[int(owner.label.rsplit("mesh-w", 1)[1])]
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


# --------------------------------------------------------------------- #
# hot-shard balancing (split and migrate)                                #
# --------------------------------------------------------------------- #


def _fleet_stream(worker_locs, task_locs):
    """A warm fleet at t=0, then one task per 0.01 time units."""
    return list(
        requests_from_events(
            merge_event_streams(
                [
                    WorkerArrival(time=0.0, worker_id=i, location=loc)
                    for i, loc in enumerate(worker_locs)
                ],
                [
                    TaskArrival(time=1.0 + 0.01 * i, task_id=i, location=loc)
                    for i, loc in enumerate(task_locs)
                ],
            )
        )
    )


def _hot_cell_stream():
    """400 workers and 300 tasks, all in the bottom-left quarter of s0."""
    rng = np.random.default_rng(0)
    w = rng.uniform(0, 100, size=(400, 2)) * [0.5, 0.5]
    t = rng.uniform(0, 100, size=(300, 2)) * [0.5, 0.5]
    return _fleet_stream(w, t)


def _west_stream():
    """All traffic on the west cells s0 and s2, which start on one peer."""
    rng = np.random.default_rng(0)
    w = np.column_stack([rng.uniform(0, 100, 500), rng.uniform(0, 200, 500)])
    t = np.column_stack([rng.uniform(0, 100, 400), rng.uniform(0, 200, 400)])
    return _fleet_stream(w, t)


BALANCED_SPEC = ServiceSpec(region=REGION, shards=(2, 2), grid_nx=6, seed=1)
SPLIT = BalancerConfig(window=128, min_tasks=32, split_share=0.5)
MIGRATE = BalancerConfig(
    window=128, min_tasks=32, split_share=0.95, migrate_imbalance=1.3
)


def _balanced_run(requests, balancer, *, n_peers=2, checkpoint_every=0, kill=False):
    """One mesh run with 64-event windows and chunks; SIGKILLs worker 0
    two thirds of the way through when ``kill``."""
    stats: dict = {}
    run, failovers = run_mesh_failover(
        BALANCED_SPEC,
        requests,
        n_peers=n_peers,
        kill_after=(2 * len(requests)) // 3 if kill else len(requests) + 1,
        window=64,
        chunk_size=64,
        checkpoint_every=checkpoint_every,
        balancer=balancer,
        stats=stats,
    )
    return run, failovers, stats


@pytest.fixture(scope="module")
def split_baseline():
    return _balanced_run(_hot_cell_stream(), SPLIT)


class TestMeshBalancer:
    def test_hot_cell_split_serves_parent_pool(self, split_baseline):
        """All traffic in one cell: the cell splits, new registrations go
        to sub-shards, and tasks still drain the pre-split parent pool."""
        run, _, stats = split_baseline
        assert stats["cell_splits"] >= 1
        assert len(run.assignments) + len(run.unassigned) == 300
        assert run.report.tasks_assigned == 300  # parent pool kept serving
        keys = {str(s.shard_id) for s in run.report.shards}
        assert {"s0/0", "s0/1", "s0/2", "s0/3"} <= keys

    @pytest.mark.parametrize(
        "shape",
        [
            {"checkpoint_every": 96},
            {"n_peers": 1},
            {"checkpoint_every": 96, "kill": True},
        ],
        ids=["checkpoints", "one-peer", "sigkill"],
    )
    def test_balanced_run_is_identical_across_shapes(self, split_baseline, shape):
        run, failovers, stats = _balanced_run(_hot_cell_stream(), SPLIT, **shape)
        assert stats["cell_splits"] == split_baseline[2]["cell_splits"]
        if shape.get("kill"):
            assert failovers >= 1
        assert check_parity([split_baseline[0], run]) == []

    def test_imbalance_triggers_migration(self):
        requests = _west_stream()
        backend = make_backend(
            "mesh",
            BALANCED_SPEC,
            n_peers=2,
            chunk_size=64,
            checkpoint_every=96,
            balancer=MIGRATE,
        )
        run = run_backend(backend, requests, window=64)
        coordinator = backend.coordinator
        # one move balances the two hot families; a balancer that read a
        # stale placement while the move was queued would make more
        assert coordinator.migrations == 1
        assert coordinator.cell_splits == 0
        # the two hot families no longer share a peer
        assert coordinator.ownership[0] != coordinator.ownership[2]
        reference = run_backend(
            make_backend("sharded", BALANCED_SPEC), requests, window=64
        )
        assert check_parity([reference, run]) == []

    def test_migrated_family_survives_a_kill(self):
        """SIGKILL the peer a family just migrated onto: failover must
        restore that family from the chain its migration cut and replay
        the journal from there, not from before the move."""
        from repro.api.client import AssignmentClient
        from repro.api.conformance import BackendRun
        from repro.api.messages import TaskDecision

        requests = _west_stream()
        backend = make_backend(
            "mesh",
            BALANCED_SPEC,
            n_peers=2,
            chunk_size=64,
            checkpoint_every=0,
            balancer=MIGRATE,
        )
        pairs, misses = [], []
        with AssignmentClient(backend) as client:
            for answered, response in enumerate(client.stream(requests, window=64), 1):
                if isinstance(response, TaskDecision):
                    if response.worker_id is None:
                        misses.append(response.task_id)
                    else:
                        pairs.append((response.task_id, response.worker_id))
                if answered == (8 * len(requests)) // 9:
                    coordinator = backend.coordinator
                    assert coordinator.migrations == 1
                    # the destination is the peer now holding 3 families
                    peers = coordinator.telemetry()["peers"].values()
                    dst = next(p for p in peers if len(p["families"]) == 3)
                    backend.kill_worker(int(dst["label"].rsplit("mesh-w", 1)[1]))
            client.flush()
            report = client.report()
        assert backend.coordinator.failovers == 1
        run = BackendRun("mesh", tuple(pairs), tuple(misses), report)
        reference = run_backend(
            make_backend("sharded", BALANCED_SPEC), requests, window=64
        )
        assert check_parity([reference, run]) == []


    def test_family_returns_to_its_old_peer_after_a_kill(self):
        """Kill a migration's destination before anything reaches it:
        failover hands the family back to the peer that just dropped its
        shards, which must restore them rather than trust stale state."""
        requests = _west_stream()
        backend = make_backend(
            "mesh",
            BALANCED_SPEC,
            n_peers=2,
            chunk_size=64,
            checkpoint_every=0,
            balancer=MIGRATE,
        )
        killed = []

        def arm(coordinator):
            migrate = coordinator._migrate

            def migrate_then_kill_destination(fam, dst, upto):
                migrate(fam, dst, upto)
                if coordinator.migrations and not killed:
                    label = coordinator._peers[dst].label
                    proc = backend.workers[int(label.rsplit("mesh-w", 1)[1])]
                    killed.append(proc.pid)
                    os.kill(proc.pid, signal.SIGKILL)
                    proc.join(timeout=10.0)

            coordinator._migrate = migrate_then_kill_destination

        mesh = _run_with_hook(backend, requests, arm)
        assert killed, "no migration ran; the kill is vacuous"
        assert backend_failovers(backend) == 1
        reference = run_backend(
            make_backend("sharded", BALANCED_SPEC), requests, window=16
        )
        assert check_parity([reference, mesh]) == []


class TestMeshLifecycle:
    def test_end_to_end_accounts_for_every_event(self):
        requests = build_conformance_stream(REGION, 600, 300, seed=3)
        backend = make_backend("mesh", spec_for((2, 2)), n_peers=2)
        run = run_backend(backend, requests)
        assert backend.coordinator.tasks_answered == 300
        assert run.report.tasks_total == 300
        assert run.report.workers_registered == 600
        assert run.report.tasks_assigned == len(run.assignments) > 0
        # no worker consumed twice, mesh-wide
        assigned = [w for _, w in run.assignments]
        assert len(set(assigned)) == len(assigned)

    def test_duplicate_worker_ids_rejected_mesh_wide(self):
        backend = make_backend("mesh", spec_for((2, 2)), n_peers=1)
        backend.open()
        try:
            with pytest.raises(ValueError, match="already registered"):
                backend.coordinator.process(
                    [_worker(1, 10.0, 10.0), _worker(1, 190.0, 190.0)]
                )
        finally:
            backend.close()

    def test_losing_every_peer_fails_loudly(self):
        """Only losing every peer is fatal, and it must surface as a
        MeshError rather than a hang."""
        backend = make_backend("mesh", spec_for((2, 2)), n_peers=2)
        backend.open()
        try:
            coordinator = backend.coordinator
            for index in range(2):
                backend.kill_worker(index)
                backend.workers[index].join(timeout=10.0)
            with pytest.raises(MeshError):
                coordinator.process([_worker(0, 10.0, 10.0), _task(0, 15.0, 15.0)])
                coordinator.result_of(0)
        finally:
            backend.close()

    def test_closed_coordinator_refuses_work(self):
        """Shard state dies with the peers: a closed coordinator must
        refuse to serve, not silently start over from empty shards."""
        backend = make_backend("mesh", spec_for((2, 2)), n_peers=1)
        run_backend(backend, build_conformance_stream(REGION, 20, 10, seed=1))
        coordinator = backend.coordinator
        assert coordinator.tasks_answered == 10  # plain reads still fine
        with pytest.raises(MeshError, match="closed"):
            coordinator.report()
        with pytest.raises(MeshError, match="closed"):
            coordinator.process([_worker(99, 10, 10)])

    def test_failed_open_reaps_listener_and_workers(self, monkeypatch):
        """A start() that raises must not leak the listener, the
        acceptor or the forked worker processes."""
        backend = make_backend("mesh", spec_for((2, 2)), n_peers=2)
        spawned = []

        def failing_start(coordinator):
            spawned.extend(backend.workers)
            raise MeshError("only 1 of 2 mesh workers joined in time")

        monkeypatch.setattr(MeshCoordinator, "start", failing_start)
        with pytest.raises(MeshError, match="joined in time"):
            backend.open()
        backend.close()
        assert len(spawned) == 2
        for proc in spawned:
            assert not proc.is_alive()
        assert backend.coordinator._listener.fileno() == -1
        assert not backend.coordinator._acceptor.is_alive()


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
        sock.sendall(handshake_frame(doc))
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

    def test_seed_must_be_an_int(self):
        # keyed shard seeding derives every shard stream from an int root,
        # like the engine and ServiceSpec; there is no generator path
        with pytest.raises(ValueError, match="seed"):
            MeshCoordinator(REGION, seed=np.random.default_rng(0))

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

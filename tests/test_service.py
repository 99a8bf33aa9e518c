"""Tests for repro.service: sharding, events, shard servers, engine, loadgen."""

from dataclasses import fields

import numpy as np
import pytest

from repro.api import (
    ApiError,
    AssignmentClient,
    Flush,
    GetReport,
    RegisterWorker,
    ReportResult,
    ServiceSpec,
    SubmitTask,
    TaskDecision,
    make_backend,
)
from repro.crowdsourcing.server import publish_tree
from repro.geometry import Box
from repro.privacy import BudgetExceededError, PrivacyBudgetLedger, TreeMechanism
from repro.service import (
    LoadConfig,
    LoadGenerator,
    ShardMap,
    ShardServer,
    ShardedAssignmentEngine,
    TaskArrival,
    WorkerArrival,
    merge_event_streams,
)
from repro.service.__main__ import main as service_main
from repro.workloads import (
    bursty_arrival_times,
    poisson_arrival_times,
    uniform_arrival_times,
)

REGION = Box.square(200.0)


def _ingest_events(engine, events):
    """Apply service events to ``engine`` as one columnar ingest call."""
    is_task = [isinstance(e, TaskArrival) for e in events]
    return engine.ingest(
        [e.task_id if t else e.worker_id for e, t in zip(events, is_task)],
        [e.location for e in events],
        is_task,
        [e.time for e in events],
    )


class TestShardMap:
    def test_shard_count_and_boxes_tile_region(self):
        smap = ShardMap(REGION, 3, 2)
        assert smap.n_shards == 6
        area = sum(
            smap.shard_box(i).width * smap.shard_box(i).height
            for i in range(smap.n_shards)
        )
        assert area == pytest.approx(REGION.width * REGION.height)

    def test_routing_matches_containing_box(self):
        smap = ShardMap(REGION, 2, 2)
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 200, size=(300, 2))
        owners = smap.shard_of_many(pts)
        for p, owner in zip(pts, owners):
            assert smap.shard_box(int(owner)).contains(p[None, :])[0]

    def test_out_of_region_clamps_to_edge_shard(self):
        smap = ShardMap(REGION, 2, 2)
        assert smap.shard_of((-50.0, -50.0)) == 0
        assert smap.shard_of((500.0, 500.0)) == smap.n_shards - 1

    def test_scalar_and_vector_routing_agree(self):
        smap = ShardMap(REGION, 4, 3)
        rng = np.random.default_rng(1)
        pts = rng.uniform(0, 200, size=(100, 2))
        many = smap.shard_of_many(pts)
        assert [smap.shard_of(p) for p in pts] == [int(v) for v in many]

    def test_on_boundary_points_route_to_a_containing_cell(self):
        """A point exactly on an internal lattice edge belongs to both
        closed cells; routing must pick one of them, deterministically."""
        smap = ShardMap(REGION, 2, 2)
        boundary = [
            (100.0, 50.0),  # vertical internal edge
            (50.0, 100.0),  # horizontal internal edge
            (100.0, 100.0),  # the four-corner point
            (0.0, 0.0),  # region corner
            (200.0, 200.0),
        ]
        for p in boundary:
            owner = smap.shard_of(p)
            assert smap.shard_box(owner).contains(np.asarray(p)[None, :])[0]
            # deterministic: the same point always routes identically
            assert owner == smap.shard_of(p)

    def test_out_of_region_clamps_like_nearest_cell(self):
        smap = ShardMap(REGION, 3, 3)
        # clamping maps each outside point to the nearest region point,
        # so the owner must equal the owner of the clamped location
        rng = np.random.default_rng(3)
        outside = rng.uniform(-300, 500, size=(200, 2))
        outside = outside[~REGION.contains(outside)]
        assert len(outside) > 0
        clamped = REGION.clamp(outside)
        assert list(smap.shard_of_many(outside)) == list(
            smap.shard_of_many(clamped)
        )

    @pytest.mark.parametrize("nx,ny", [(1, 5), (5, 1), (1, 1)])
    def test_degenerate_lattices_route_by_the_long_axis(self, nx, ny):
        smap = ShardMap(REGION, nx, ny)
        assert smap.n_shards == nx * ny
        rng = np.random.default_rng(4)
        pts = rng.uniform(0, 200, size=(100, 2))
        owners = smap.shard_of_many(pts)
        assert set(int(o) for o in owners) <= set(range(nx * ny))
        for p, owner in zip(pts, owners):
            assert smap.shard_box(int(owner)).contains(p[None, :])[0]
        # every cell center routes to itself
        assert list(smap.shard_of_many(smap.centers)) == list(
            range(nx * ny)
        )

    def test_subdivide_tiles_the_parent_cell(self):
        smap = ShardMap(REGION, 2, 2)
        sub = smap.subdivide(3, 2, 3)
        parent = smap.shard_box(3)
        assert sub.n_shards == 6
        assert sub.region == parent
        area = sum(
            sub.shard_box(i).width * sub.shard_box(i).height
            for i in range(sub.n_shards)
        )
        assert area == pytest.approx(parent.width * parent.height)

    def test_task_lands_in_shard_owning_its_snapped_point(self):
        """Routing then snapping stays inside the routed shard: the shard's
        predefined points tile exactly its own cell."""
        engine = ShardedAssignmentEngine(REGION, shards=(2, 2), grid_nx=6, seed=0)
        rng = np.random.default_rng(2)
        for loc in rng.uniform(0, 200, size=(50, 2)):
            sid = engine.shard_map.shard_of(loc)
            shard = engine.host.shards[f"s{sid}"]
            snapped = shard.tree.snap_index.snap(loc)
            point = shard.tree.points[snapped]
            assert engine.shard_map.shard_of(point) == sid


class TestMetricsHelpers:
    def test_percentile_is_public_and_nan_safe(self):
        from repro.service.metrics import percentile

        assert percentile([], 50) != percentile([], 50)  # NaN
        assert percentile([1.0, 2.0, 3.0], 50) == pytest.approx(2.0)
        assert percentile(np.arange(101), 95) == pytest.approx(95.0)

    def test_shard_metrics_round_trip(self):
        from repro.service.metrics import ShardMetrics

        metrics = ShardMetrics("s1/2")
        metrics.record_cohort(5)
        metrics.record_assignment(0.001, 3.5)
        metrics.record_unassigned(0.002)
        restored = ShardMetrics.from_dict(metrics.to_dict())
        assert restored == metrics


class TestEvents:
    def test_merge_orders_by_time_with_workers_first(self):
        w = WorkerArrival(time=1.0, worker_id=0, location=(1.0, 1.0))
        t = TaskArrival(time=1.0, task_id=0, location=(2.0, 2.0))
        t_early = TaskArrival(time=0.5, task_id=1, location=(3.0, 3.0))
        merged = merge_event_streams([t, t_early], [w])
        assert merged == [t_early, w, t]


class TestArrivalProcesses:
    def test_poisson_monotone_and_sized(self):
        times = poisson_arrival_times(100, rate=10.0, seed=0)
        assert times.shape == (100,)
        assert np.all(np.diff(times) >= 0)

    def test_uniform_sorted_within_horizon(self):
        times = uniform_arrival_times(50, horizon=5.0, seed=0)
        assert np.all(np.diff(times) >= 0)
        assert times[0] >= 0 and times[-1] < 5.0

    def test_bursty_monotone_and_bursty(self):
        times = bursty_arrival_times(400, rate=10.0, burst=5.0, seed=0)
        assert np.all(np.diff(times) > 0)
        gaps = np.diff(times)
        # on/off modulation produces far more gap dispersion than Poisson
        assert gaps.std() / gaps.mean() > 1.1

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            poisson_arrival_times(10, rate=0.0)
        with pytest.raises(ValueError):
            uniform_arrival_times(10, horizon=-1.0)
        with pytest.raises(ValueError):
            bursty_arrival_times(10, rate=1.0, duty=1.5)


class TestBatchEquivalence:
    def test_points_batch_matches_paths_batch_exactly(self):
        """obfuscate_points_batch is the leaf kernel on the points' leaf
        indices plus index plumbing: identical outputs and RNG state under
        the same seed, for a batch of one (its plain-Python form) as for a
        larger batch."""
        tree = publish_tree(Box.square(100.0), grid_nx=6, seed=0)
        mech = TreeMechanism(tree, epsilon=0.5, seed=1)
        for idx in (np.arange(tree.n_points), *np.arange(tree.n_points)[:, None]):
            rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
            a = mech.obfuscate_points_batch(idx, rng_a)
            b = mech._obfuscate_leaves(tree.leaf_index[idx], rng_b)
            assert np.array_equal(a, b)
            assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_batch_and_loop_same_level_law(self):
        """Cohort (batch) and per-worker (loop) registration sample the
        same Theorem-2 distribution: empirical LCA-level histograms agree."""
        from repro.hst import lca_level

        tree = publish_tree(Box.square(100.0), grid_nx=6, seed=0)
        mech = TreeMechanism(tree, epsilon=0.3, seed=1)
        n = 8000
        idx = np.zeros(n, dtype=np.intp)
        x = tree.path_of(0)
        batch = mech.obfuscate_points_batch(idx, np.random.default_rng(8))
        loop = mech.obfuscate_many([x] * n, np.random.default_rng(9))
        batch_levels = [lca_level(x, tree.path_of_leaf(z)) for z in batch]
        loop_levels = [lca_level(x, r) for r in loop]
        for lvl in range(tree.depth + 1):
            a = np.mean(np.asarray(batch_levels) == lvl)
            b = np.mean(np.asarray(loop_levels) == lvl)
            assert abs(a - b) < 0.03

    def test_cohort_registration_deterministic_under_seed(self):
        box = Box.square(100.0)
        locs = np.random.default_rng(3).uniform(0, 100, size=(40, 2))
        reports = []
        for _ in range(2):
            shard = ShardServer(0, box, grid_nx=6, seed=42)
            shard.register_cohort(range(40), locs)
            state = shard.server.export_state()
            reports.append(dict(zip(state["worker_ids"], state["leaves"])))
        assert reports[0] == reports[1]
        assert sorted(reports[0]) == list(range(40))


class TestShardServer:
    @pytest.fixture()
    def shard(self):
        return ShardServer(
            0, Box.square(100.0), grid_nx=6, epsilon=0.5, budget_capacity=1.0, seed=0
        )

    def test_cohort_spends_budget(self, shard):
        locs = np.random.default_rng(0).uniform(0, 100, size=(10, 2))
        shard.register_cohort(range(10), locs)
        assert shard.ledger.principals == 10
        assert shard.ledger.remaining(3) == pytest.approx(0.5)
        snap = shard.snapshot()
        assert snap.budget_min_remaining == pytest.approx(0.5)
        assert snap.workers_registered == 10

    def test_budget_cap_rejects_whole_cohort(self):
        # capacity below one report's epsilon: the cohort must be refused
        # atomically, leaving neither ledger entries nor registrations
        shard = ShardServer(
            0, Box.square(100.0), grid_nx=6, epsilon=0.5, budget_capacity=0.4, seed=0
        )
        locs = np.random.default_rng(0).uniform(0, 100, size=(4, 2))
        with pytest.raises(BudgetExceededError):
            shard.register_cohort(range(4), locs)
        assert shard.ledger.principals == 0
        assert shard.server.registered_workers == 0

    def test_duplicate_registration_rejected_before_spend(self, shard):
        locs = np.random.default_rng(0).uniform(0, 100, size=(4, 2))
        shard.register_cohort(range(4), locs)
        with pytest.raises(ValueError):
            shard.register_cohort([3, 4], locs[:2] + 1.0)
        # the rejected cohort charged nobody — worker 3 still has one
        # report's worth of budget spent, worker 4 none
        assert shard.ledger.remaining(3) == pytest.approx(0.5)
        assert shard.ledger.spent(4) == 0.0

    def test_ledger_spend_batch_all_or_nothing(self):
        ledger = PrivacyBudgetLedger(1.0)
        ledger.spend("a", 0.8)
        with pytest.raises(BudgetExceededError):
            ledger.spend_batch(["b", "a"], 0.5)
        assert ledger.spent("b") == 0.0
        assert ledger.spent("a") == pytest.approx(0.8)
        assert ledger.min_remaining() == pytest.approx(0.2)

    def test_ledger_spend_batch_counts_duplicates(self):
        # a principal repeated within one batch spends k * epsilon; the cap
        # check must see the total, not each occurrence against old state
        ledger = PrivacyBudgetLedger(1.0)
        with pytest.raises(BudgetExceededError):
            ledger.spend_batch(["u", "u", "u"], 0.5)
        assert ledger.spent("u") == 0.0
        ledger.spend_batch(["u", "u"], 0.5)
        assert ledger.remaining("u") == pytest.approx(0.0)

    def test_submit_records_latency_and_distance(self, shard):
        locs = np.random.default_rng(1).uniform(0, 100, size=(5, 2))
        shard.register_cohort(range(5), locs)
        worker = shard.submit_task(0, (50.0, 50.0))
        assert worker in range(5)
        assert shard.metrics.tasks_assigned == 1
        assert len(shard.metrics.latencies_s) == 1
        assert shard.metrics.reported_distance_total >= 0.0

    def test_pool_exhaustion_counts_unassigned(self, shard):
        shard.register_cohort([0], [(10.0, 10.0)])
        assert shard.submit_task(0, (10.0, 10.0)) == 0
        assert shard.submit_task(1, (10.0, 10.0)) is None
        assert shard.metrics.tasks_unassigned == 1


class TestEngine:
    def test_streaming_registration_between_tasks(self):
        engine = ShardedAssignmentEngine(
            REGION, shards=(2, 1), grid_nx=6, batch_size=4, seed=0
        )
        events = merge_event_streams(
            [
                WorkerArrival(time=0.0, worker_id=0, location=(10.0, 100.0)),
                WorkerArrival(time=2.0, worker_id=1, location=(12.0, 100.0)),
            ],
            [
                TaskArrival(time=1.0, task_id=0, location=(11.0, 100.0)),
                TaskArrival(time=3.0, task_id=1, location=(11.0, 100.0)),
            ],
        )
        decisions = _ingest_events(engine, events)
        report = engine.report()
        assert report.tasks_assigned == 2
        assert sorted(decisions) == [0, 1]

    def test_task_flushes_pending_cohort(self):
        engine = ShardedAssignmentEngine(
            REGION, shards=(1, 1), grid_nx=6, batch_size=1000, seed=0
        )
        engine.register_worker(7, (50.0, 50.0))
        # buffer below batch_size: the worker is pending, not registered
        assert engine.host.shards["s0"].server.registered_workers == 0
        assert engine.submit_task(0, (50.0, 50.0)) == 7

    def test_batch_size_triggers_flush(self):
        engine = ShardedAssignmentEngine(
            REGION, shards=(1, 1), grid_nx=6, batch_size=3, seed=0
        )
        locs = np.random.default_rng(0).uniform(0, 200, size=(3, 2))
        engine.register_workers(range(3), locs)
        assert engine.host.shards["s0"].server.registered_workers == 3
        assert engine.host.shards["s0"].metrics.cohorts_flushed == 1

    def test_duplicate_worker_id_rejected_across_shards(self):
        # shards only know their own workers; without the engine-wide
        # registry one id registered in two shards could be assigned twice
        engine = ShardedAssignmentEngine(REGION, shards=(2, 1), grid_nx=6, seed=0)
        engine.register_worker(7, (10.0, 100.0))  # west shard (pending)
        with pytest.raises(ValueError):
            engine.register_worker(7, (190.0, 100.0))  # east shard
        with pytest.raises(ValueError):
            engine.register_workers([8, 8], [(10.0, 100.0), (190.0, 100.0)])

    def test_workers_only_consumed_by_their_own_shard(self):
        engine = ShardedAssignmentEngine(REGION, shards=(2, 1), grid_nx=6, seed=0)
        engine.register_workers([0], [(10.0, 100.0)])  # west shard
        engine.flush()
        # a far-east task routes to the east shard, which has no workers
        assert engine.submit_task(0, (190.0, 100.0)) is None
        assert engine.submit_task(1, (10.0, 100.0)) == 0

    def test_report_keys_shards_by_routing_key(self):
        # one shard key type across backends: "s<i>", like the mesh
        engine = ShardedAssignmentEngine(REGION, shards=(2, 2), grid_nx=4, seed=0)
        assert list(engine.host.shards) == engine.keys == ["s0", "s1", "s2", "s3"]
        assert [s.shard_id for s in engine.report().shards] == engine.keys

    def test_report_aggregates_shards(self):
        engine = ShardedAssignmentEngine(REGION, shards=(2, 2), grid_nx=6, seed=0)
        rng = np.random.default_rng(0)
        engine.register_workers(range(100), rng.uniform(0, 200, size=(100, 2)))
        for task_id in range(40):
            engine.submit_task(task_id, rng.uniform(0, 200, size=2))
        report = engine.report(wall_seconds=0.5)
        assert report.workers_registered == 100
        assert report.tasks_total == 40
        assert report.throughput_tasks_per_s == pytest.approx(80.0)
        assert len(report.shards) == 4
        d = report.to_dict()
        assert len(d["shards"]) == 4
        assert d["tasks_total"] == 40


#: Cohort size of the parity runs: small, so cuts land inside windows.
PARITY_BATCH = 5
#: Lattice edges, region corners and points outside the region.
AWKWARD_LOCATIONS = [
    (100.0, 37.0),
    (64.0, 100.0),
    (100.0, 100.0),
    (0.0, 0.0),
    (200.0, 200.0),
    (-30.0, 120.0),
    (250.0, -40.0),
    (130.0, 999.0),
]


def _parity_spec():
    return ServiceSpec(
        region=REGION, shards=(2, 2), grid_nx=4, batch_size=PARITY_BATCH, seed=3
    )


def _interleaving(seed: int, n: int = 320) -> list:
    """A seeded random mix of registrations and tasks, with flushes,
    mid-stream reports and awkward locations sprinkled in."""
    rng = np.random.default_rng(seed)
    requests = []
    t = 0.0
    n_workers = n_tasks = 0
    for _ in range(n):
        t += float(rng.exponential(0.5))
        if rng.random() < 0.15:
            loc = AWKWARD_LOCATIONS[rng.integers(len(AWKWARD_LOCATIONS))]
        else:
            loc = tuple(float(v) for v in rng.uniform(0.0, 200.0, size=2))
        roll = rng.random()
        if roll < 0.02:
            requests.append(Flush())
        elif roll < 0.04:
            requests.append(GetReport())
        elif roll < 0.64:
            requests.append(RegisterWorker(worker_id=n_workers, location=loc, time=t))
            n_workers += 1
        else:
            requests.append(SubmitTask(task_id=n_tasks, location=loc, time=t))
            n_tasks += 1
    return requests


def _report_facts(report) -> list:
    """Every report field a replay must reproduce exactly: all but the
    wall-clock latencies (as reprs, so NaN equals NaN)."""
    facts = [report.sim_duration, report.mean_reported_distance]
    for shard in report.shards:
        facts.extend(
            getattr(shard, f.name)
            for f in fields(shard)
            if not f.name.startswith("latency_")
        )
    return [repr(v) for v in facts]


def _outcome(responses) -> list:
    """Decisions and mid-stream report facts, in stream order."""
    out = []
    for response in responses:
        if isinstance(response, TaskDecision):
            out.append((response.task_id, response.worker_id))
        elif isinstance(response, ReportResult):
            out.append(_report_facts(response.report))
    return out


def _per_call(requests):
    """The per-call path: one client call per request, stopping at the
    first error. Returns (outcome, error, final report facts)."""
    with AssignmentClient(make_backend("sharded", _parity_spec())) as client:
        responses, error = [], None
        for request in requests:
            try:
                responses.append(client.call(request))
            except ApiError as exc:
                error = exc
                break
        return _outcome(responses), error, _report_facts(client.report())


def _windowed(requests, window: int):
    """The same requests streamed in windows of ``window``."""
    with AssignmentClient(make_backend("sharded", _parity_spec())) as client:
        responses, error = [], None
        try:
            for response in client.stream(requests, window=window):
                responses.append(response)
        except ApiError as exc:
            error = exc
        return _outcome(responses), error, _report_facts(client.report())


class TestChunkedIngestParity:
    """A window ingests as one routing pass; its decisions, reports and
    failures must be exactly those of one call per request."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "window", [1, PARITY_BATCH - 1, PARITY_BATCH + 1, 512]
    )
    def test_windows_match_per_call_path(self, seed, window):
        requests = _interleaving(seed)
        reference, ref_error, ref_final = _per_call(requests)
        assert ref_error is None
        outcome, error, final = _windowed(requests, window)
        assert error is None
        assert outcome == reference
        assert final == ref_final
        # the stream really exercised what it claims to
        decisions = [o for o in reference if isinstance(o, tuple)]
        assert any(worker is not None for _, worker in decisions)
        assert any(isinstance(o, list) for o in reference)

    @pytest.mark.parametrize("window", [1, 3, 512])
    def test_duplicate_worker_mid_window_fails_like_per_call(self, window):
        requests = [
            RegisterWorker(worker_id=0, location=(20.0, 20.0), time=1.0),
            RegisterWorker(worker_id=1, location=(180.0, 20.0), time=2.0),
            SubmitTask(task_id=0, location=(25.0, 25.0), time=3.0),
            RegisterWorker(worker_id=2, location=(20.0, 180.0), time=4.0),
            RegisterWorker(worker_id=1, location=(30.0, 30.0), time=5.0),
            RegisterWorker(worker_id=3, location=(30.0, 30.0), time=6.0),
            SubmitTask(task_id=1, location=(175.0, 25.0), time=7.0),
        ]
        reference, ref_error, ref_final = _per_call(requests)
        assert ref_error is not None
        outcome, error, final = _windowed(requests, window)
        assert (type(error), error.code, error.message) == (
            type(ref_error),
            ref_error.code,
            ref_error.message,
        )
        # the events before the duplicate stay applied (workers 0-2 and
        # its clock), nothing after it runs (worker 3, task 1)
        assert final == ref_final
        assert outcome == reference[: len(outcome)]

    def test_register_workers_applies_up_to_the_duplicate(self):
        engine = ShardedAssignmentEngine(
            REGION, shards=(2, 1), grid_nx=6, batch_size=100, seed=0
        )
        with pytest.raises(ValueError, match="already registered"):
            engine.register_workers(
                [1, 2, 1, 3],
                [(10.0, 10.0), (190.0, 10.0), (20.0, 20.0), (30.0, 30.0)],
            )
        pending = [ids for ids, _ in engine.host.pending.values()]
        assert pending == [[1], [2]]
        engine.register_worker(3, (30.0, 30.0))  # never claimed
        with pytest.raises(ValueError, match="already registered"):
            engine.register_worker(2, (40.0, 40.0))

    def test_chunking_never_moves_a_cohort_cut(self):
        events = [
            WorkerArrival(time=float(i), worker_id=i, location=(10.0 + i, 10.0))
            for i in range(7)
        ] + [TaskArrival(time=7.0, task_id=0, location=(10.0, 10.0))]
        whole = ShardedAssignmentEngine(
            REGION, shards=(1, 1), grid_nx=6, batch_size=3, seed=0
        )
        whole_decisions = _ingest_events(whole, events)
        whole.flush()
        single = ShardedAssignmentEngine(
            REGION, shards=(1, 1), grid_nx=6, batch_size=3, seed=0
        )
        for event in events[:-1]:
            single.register_worker(event.worker_id, event.location)
        single_decisions = [single.submit_task(0, events[-1].location)]
        single.flush()
        # cohorts cut at 3, 3, then the task's flush takes the last one
        for engine in (whole, single):
            assert engine.host.shards["s0"].metrics.cohorts_flushed == 3
        assert whole_decisions == single_decisions
        assert whole.now == 7.0


class TestPipelinedGatewayParity:
    """A pipelined gateway stream with flushes and mid-stream reports
    mixed in equals the per-call replay. The client ends a window's run
    at exactly these verbs, sends each alone, and re-sequences whole
    answers around them; none of that may move a decision or a report."""

    @pytest.mark.parametrize("backend", ["sharded", "mesh"])
    @pytest.mark.parametrize("window, depth", [(1, 3), (7, 4), (64, 2)])
    def test_stream_matches_per_call_replay(self, backend, window, depth):
        from repro.gateway import GatewayConfig, RemoteBackend, serve_gateway

        requests = _interleaving(0)
        reference, ref_error, ref_final = _per_call(requests)
        assert ref_error is None
        assert any(isinstance(o, list) for o in reference)  # mid-stream reports
        kwargs = {"n_peers": 2, "checkpoint_every": 64} if backend == "mesh" else {}
        config = GatewayConfig(
            spec=_parity_spec(), backend=backend, backend_kwargs=kwargs
        )
        with serve_gateway(config) as gateway:
            remote = RemoteBackend(_parity_spec(), address=gateway.address)
            with AssignmentClient(remote) as client:
                outcome = _outcome(
                    client.stream(requests, window=window, pipeline=depth)
                )
                assert remote.supports_pipeline
                final = _report_facts(client.report())
        assert outcome == reference
        assert final == ref_final


class TestLoadGenerator:
    def test_gaussian_end_to_end(self):
        config = LoadConfig(
            n_workers=300, n_tasks=120, shards=(2, 2), grid_nx=6, seed=0
        )
        report = LoadGenerator(config).run()
        assert report.tasks_total == 120
        assert report.tasks_assigned > 0
        assert report.wall_seconds > 0
        assert np.isfinite(report.latency_p50_ms)
        assert np.isfinite(report.mean_true_distance)
        assert report.mean_true_distance > 0

    def test_taxi_end_to_end(self):
        config = LoadConfig(
            workload="taxi",
            n_workers=300,
            n_tasks=150,
            shards=(2, 1),
            grid_nx=6,
            arrival="bursty",
            seed=0,
        )
        report = LoadGenerator(config).run()
        assert report.tasks_total == 150
        assert report.tasks_assigned > 0

    def test_reproducible_given_seed(self):
        config = LoadConfig(n_workers=200, n_tasks=80, grid_nx=6, seed=5)
        r1 = LoadGenerator(config).run()
        r2 = LoadGenerator(config).run()
        assert r1.tasks_assigned == r2.tasks_assigned
        assert r1.mean_reported_distance == pytest.approx(r2.mean_reported_distance)
        assert r1.mean_true_distance == pytest.approx(r2.mean_true_distance)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LoadConfig(workload="pigeon")
        with pytest.raises(ValueError):
            LoadConfig(arrival="sometimes")
        with pytest.raises(ValueError):
            LoadConfig(task_rate=0.0)

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("epsilon", float("nan")),
            ("epsilon", float("inf")),
            ("budget_capacity", float("nan")),
        ],
    )
    def test_config_validation_rejects_non_finite_budgets(self, field, bad):
        with pytest.raises(ValueError):
            LoadConfig(**{field: bad})


class TestCli:
    @pytest.mark.parametrize(
        "flags",
        [["--epsilon", "nan"], ["--epsilon", "inf"], ["--budget", "nan"]],
    )
    def test_non_finite_budget_is_a_usage_error(self, flags, capsys):
        with pytest.raises(SystemExit) as exit_info:
            service_main(["--smoke", *flags])
        assert exit_info.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_smoke_flag_meets_acceptance_gates(self, capsys):
        assert service_main(["--smoke"]) == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "p95" in out
        assert "eps-left" in out

    def test_json_output(self, capsys):
        import json

        code = service_main(
            ["--workers", "200", "--tasks", "50", "--grid", "6", "--json"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["tasks_total"] == 50
        assert len(data["shards"]) == 4

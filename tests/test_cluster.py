"""Tests for repro.cluster: snapshots, shard host, router, balancer.

The coordinator that runs these pieces is the mesh's; its tests live in
``tests/test_mesh.py``.
"""

import json

import numpy as np
import pytest

from repro.cluster import (
    SNAPSHOT_VERSION,
    BalancerConfig,
    ClusterRouter,
    HotShardBalancer,
    ShardHost,
    SnapshotError,
    compose_chain,
    delta_snapshot,
    parse_snapshot,
    restore_chain,
    restore_shard,
    shard_spec,
    snapshot_shard,
    snapshot_text,
)
from repro.cluster.balancer import fallback_chain
from repro.geometry import Box
from repro.service import ShardMap, ShardServer
from repro.utils import keyed_shard_seed

REGION = Box.square(200.0)


def _fresh_shard(seed: int = 42) -> ShardServer:
    return ShardServer("s0", Box.square(100.0), grid_nx=6, seed=seed)


class TestSnapshotRoundTrip:
    def test_mid_stream_restore_replays_identically(self):
        """Acceptance gate: snapshot mid-stream, restore, replay the rest —
        byte-identical assignments and end state vs the uninterrupted run."""
        rng = np.random.default_rng(0)
        locs = rng.uniform(0, 100, size=(60, 2))
        tasks = rng.uniform(0, 100, size=(40, 2))

        def drive_prefix(shard):
            shard.register_cohort(range(30), locs[:30])
            return [shard.submit_task(i, tasks[i]) for i in range(20)]

        def drive_suffix(shard):
            shard.register_cohort(range(30, 60), locs[30:])
            return [shard.submit_task(i, tasks[i]) for i in range(20, 40)]

        uninterrupted = _fresh_shard()
        expected = drive_prefix(uninterrupted) + drive_suffix(uninterrupted)

        interrupted = _fresh_shard()
        decisions = drive_prefix(interrupted)
        # the text round trip, exactly what failover ships
        payload = parse_snapshot(snapshot_text(snapshot_shard(interrupted)))
        restored, pending = restore_shard(payload)
        assert pending == ([], [])
        decisions += drive_suffix(restored)

        assert decisions == expected
        a = uninterrupted.export_state()
        b = restored.export_state()
        # metrics carry measured wall-clock latencies, which legitimately
        # differ run to run; everything else must match exactly
        a.pop("metrics")
        b.pop("metrics")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_pending_buffer_survives(self):
        shard = _fresh_shard()
        pending = ([7, 8], [np.array([1.0, 2.0]), np.array([3.0, 4.0])])
        text = snapshot_text(snapshot_shard(shard, pending))
        restored, out = restore_shard(parse_snapshot(text))
        assert out[0] == [7, 8]
        assert [list(p) for p in out[1]] == [[1.0, 2.0], [3.0, 4.0]]
        restored.register_cohort(out[0], out[1])
        assert restored.server.registered_workers == 2

    def test_delta_chain_restores_from_text_and_replays_identically(self):
        """The text round trip of a base and a delta cut mid-stream, with
        a worker left in the pending buffer: restoring the parsed chain
        and replaying the rest gives the uninterrupted run's assignments
        and end state."""
        rng = np.random.default_rng(5)
        locs = rng.uniform(0, 100, size=(45, 2))
        tasks = rng.uniform(0, 100, size=(30, 2))

        def drive(shard, lo, hi):
            # three workers for every two tasks
            workers = range(lo * 3 // 2, hi * 3 // 2)
            shard.register_cohort(workers, locs[workers.start : workers.stop])
            return [shard.submit_task(i, tasks[i]) for i in range(lo, hi)]

        uninterrupted = _fresh_shard()
        expected = [
            worker
            for lo, hi in ((0, 10), (10, 20), (20, 30))
            for worker in drive(uninterrupted, lo, hi)
        ]

        interrupted = _fresh_shard()
        decisions = drive(interrupted, 0, 10)
        base = snapshot_text(snapshot_shard(interrupted, checkpoint=1))
        cursor = interrupted.checkpoint_cursor()
        decisions += drive(interrupted, 10, 20)
        pending = ([99], [np.array([50.0, 50.0])])
        delta = snapshot_text(
            delta_snapshot(interrupted, pending, cursor, checkpoint=2, parent=1)
        )
        restored, out = restore_chain([parse_snapshot(base), parse_snapshot(delta)])
        assert out[0] == [99] and [list(p) for p in out[1]] == [[50.0, 50.0]]
        decisions += drive(restored, 20, 30)

        assert decisions == expected
        a = uninterrupted.export_state()
        b = restored.export_state()
        a.pop("metrics")
        b.pop("metrics")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_text_chain_composes_to_the_full_export_at_its_tip(self):
        """A base and four deltas made into text and parsed back compose
        into exactly the base document a full export at the tip writes,
        float for float, pending buffer and checkpoint id included."""
        shard = _fresh_shard()
        rng = np.random.default_rng(6)
        pending = ([], [])
        texts = [snapshot_text(snapshot_shard(shard, pending, checkpoint=1))]
        cursor = shard.checkpoint_cursor()
        for ckpt in range(2, 6):
            ids = range(ckpt * 10, ckpt * 10 + 7)
            shard.register_cohort(ids, rng.uniform(0, 100, (7, 2)))
            for task in range(ckpt * 10, ckpt * 10 + 3):
                shard.submit_task(task, rng.uniform(0, 100, 2))
            pending = ([ckpt], [rng.uniform(0, 100, 2)])
            texts.append(
                snapshot_text(
                    delta_snapshot(
                        shard, pending, cursor, checkpoint=ckpt, parent=ckpt - 1
                    )
                )
            )
            cursor = shard.checkpoint_cursor()
        composed = compose_chain([parse_snapshot(text) for text in texts])
        full = snapshot_shard(shard, pending, checkpoint=5)
        assert json.dumps(composed, sort_keys=True) == json.dumps(full, sort_keys=True)

    @pytest.mark.parametrize(
        "damage, code",
        [
            (lambda text: text[: len(text) // 2], "snapshot-bad-format"),
            (lambda text: text.replace(
                f'"version":{SNAPSHOT_VERSION}', f'"version":{SNAPSHOT_VERSION + 1}', 1
            ), "snapshot-unsupported-version"),
            (lambda text: json.loads(text), "snapshot-bad-format"),
        ],
        ids=["truncated", "foreign-version", "not-text"],
    )
    def test_damaged_text_is_refused_with_its_code(self, damage, code):
        text = snapshot_text(snapshot_shard(_fresh_shard(), checkpoint=1))
        assert f'"version":{SNAPSHOT_VERSION}' in text
        with pytest.raises(SnapshotError) as err:
            parse_snapshot(damage(text))
        assert err.value.code == code

    def test_ledger_and_metrics_survive(self):
        shard = _fresh_shard()
        shard.register_cohort(range(5), np.random.default_rng(1).uniform(0, 100, (5, 2)))
        shard.submit_task(0, (50.0, 50.0))
        restored, _ = restore_shard(snapshot_shard(shard))
        assert restored.ledger.to_dict() == shard.ledger.to_dict()
        assert restored.metrics.workers_registered == 5
        assert restored.metrics.tasks_assigned == 1
        assert restored.snapshot() == shard.snapshot()

    def test_rejects_bad_documents(self):
        shard = _fresh_shard()
        good = snapshot_shard(shard)
        with pytest.raises(ValueError, match="document"):
            restore_shard({**good, "format": "nope"})
        with pytest.raises(ValueError, match="version"):
            restore_shard({**good, "version": 99})
        with pytest.raises(ValueError, match="missing"):
            restore_shard({"format": good["format"], "version": good["version"]})

    def test_rejects_foreign_rng_stream(self):
        shard = _fresh_shard()
        payload = snapshot_shard(shard)
        payload["state"]["rng_state"] = {
            **payload["state"]["rng_state"],
            "bit_generator": "MT19937",
        }
        with pytest.raises(ValueError, match="MT19937"):
            restore_shard(payload)


class TestShardHost:
    def _host_with_family(self):
        host = ShardHost(batch_size=4)
        box = Box.square(100.0)
        spec = {
            "grid_nx": 6,
            "epsilon": 0.5,
            "budget_capacity": 2.0,
        }
        host.create("s0", {**spec, "box": [0, 0, 100, 100], "seed": 1})
        host.create("s0/0", {**spec, "box": [0, 0, 50, 50], "seed": 2})
        assert host.shards["s0"].box == box
        return host

    def test_task_chain_falls_back_to_parent(self):
        """Post-split tasks drain the parent's pre-split worker pool: a
        task row keyed to the sub-shard, whose only worker sits in the
        parent, is served from the parent."""
        host = self._host_with_family()
        assert host.chains["s0/0"] == ("s0/0", "s0")
        assert host.ingest(
            ["s0", "s0/0"], [1, 0], [(10.0, 10.0), (15.0, 15.0)], [False, True]
        ) == [1]
        assert host.shards["s0"].metrics.tasks_assigned == 1
        assert host.shards["s0/0"].metrics.tasks_assigned == 0

    def test_full_miss_recorded_once_on_primary(self):
        host = self._host_with_family()
        assert host.ingest(["s0/0"], [0], [(15.0, 15.0)], [True]) == [None]
        assert host.shards["s0/0"].metrics.tasks_unassigned == 1
        assert host.shards["s0"].metrics.tasks_unassigned == 0

    def test_batch_size_flushes_pending(self):
        host = self._host_with_family()
        locs = np.random.default_rng(0).uniform(0, 50, size=(4, 2)).tolist()
        assert host.ingest(["s0/0"] * 4, list(range(4)), locs, [False] * 4) == []
        assert host.shards["s0/0"].server.registered_workers == 4
        assert host.pending["s0/0"] == ([], [])

    def test_one_row_per_call_cuts_cohorts_like_one_window(self):
        """One row per ingest call (the engine fed event by event) and one
        window of rows (a mesh delivery) cut cohorts at the same rows."""
        locs = np.random.default_rng(3).uniform(0, 100, size=(11, 2)).tolist()
        one_by_one = self._host_with_family()
        for wid, loc in enumerate(locs):
            one_by_one.ingest(["s0"], [wid], [loc], [False])
        at_once = self._host_with_family()
        at_once.ingest(["s0"] * 11, list(range(11)), locs, [False] * 11)
        for host in (one_by_one, at_once):
            # batch_size 4: cohorts cut after workers 3 and 7
            assert host.shards["s0"].metrics.cohorts_flushed == 2
            assert host.pending["s0"][0] == [8, 9, 10]
        a, b = one_by_one.shards["s0"], at_once.shards["s0"]
        assert json.dumps(a.server.export_state(), sort_keys=True) == json.dumps(
            b.server.export_state(), sort_keys=True
        )
        assert a.ledger.to_dict() == b.ledger.to_dict()

    def test_load_takes_only_a_chain(self):
        host = self._host_with_family()
        doc = parse_snapshot(snapshot_text(host.snapshot("s0/0")))
        fresh = ShardHost(batch_size=4)
        with pytest.raises(SnapshotError):
            fresh.load("s0/0", doc)  # a lone document is not a chain
        fresh.load("s0/0", [doc])
        assert json.dumps(fresh.shards["s0/0"].export_state()) == json.dumps(
            host.shards["s0/0"].export_state()
        )

    def test_checkpoint_round_trip(self):
        """Snapshot every shard of a host holding a buffered worker, load
        the documents into a fresh host: the buffered worker survives and
        replayed tasks match an uninterrupted host's."""
        rng = np.random.default_rng(2)
        locs = rng.uniform(0, 200, size=(40, 2))
        tasks = rng.uniform(0, 200, size=(20, 2))
        smap = ShardMap(REGION, 2, 1)
        task_keys = [f"s{smap.shard_of(t)}" for t in tasks]

        def build():
            host = ShardHost(batch_size=16)
            for i in range(smap.n_shards):
                host.create(
                    f"s{i}",
                    shard_spec(
                        smap.shard_box(i),
                        grid_nx=6,
                        epsilon=0.5,
                        budget_capacity=2.0,
                        seed=keyed_shard_seed(8, f"s{i}"),
                    ),
                )
            host.ingest(
                [f"s{smap.shard_of(loc)}" for loc in locs],
                list(range(len(locs))),
                locs.tolist(),
                [False] * len(locs),
            )
            host.ingest(task_keys[:10], list(range(10)), tasks[:10].tolist(), [True] * 10)
            host.ingest(["s0"], [99], [(5.0, 5.0)], [False])  # left buffered
            return host

        original, donor = build(), build()
        clone = ShardHost(batch_size=16)
        for key in donor.shards:
            # the text round trip, exactly what failover ships
            clone.load(key, [parse_snapshot(snapshot_text(donor.snapshot(key)))])
        assert clone.pending["s0"][0] == [99]
        decisions = {"original": [], "clone": []}
        for i in range(10, 20):
            row = ([task_keys[i]], [i], [tasks[i]], [True])
            decisions["original"] += original.ingest(*row)
            decisions["clone"] += clone.ingest(*row)
        assert decisions["clone"] == decisions["original"]
        assert any(worker is not None for worker in decisions["clone"])
        assert list(clone.shards) == list(original.shards)
        for key, a in original.shards.items():
            b = clone.shards[key]
            assert a.server.export_state() == b.server.export_state()
            assert a.ledger.to_dict() == b.ledger.to_dict()
            assert a.available_workers == b.available_workers


class TestClusterRouter:
    def test_unsplit_routing_matches_shard_map(self):
        smap = ShardMap(REGION, 2, 2)
        router = ClusterRouter(smap)
        pts = np.random.default_rng(0).uniform(0, 200, size=(50, 2))
        families, index = router.route_many(pts)
        assert families.tolist() == smap.shard_of_many(pts).tolist()
        assert not index.any()  # an unsplit cell's only key is its own

    def test_split_adds_fallback_chain(self):
        router = ClusterRouter(ShardMap(REGION, 2, 2))
        children = router.split(0, 2)
        assert children == ["s0/0", "s0/1", "s0/2", "s0/3"]
        # a point in the split cell routes to its sub-shard, whose chain
        # falls back to the parent; other cells are untouched
        pts = np.random.default_rng(1).uniform(0, 200, size=(60, 2))
        families, index = router.route_many(pts)
        assert router.family_keys(0) == ["s0", *children]
        for (x, y), fam, k in zip(pts, families.tolist(), index.tolist()):
            key = router.family_keys(fam)[k]
            if x < 100 and y < 100:
                assert (fam, k) != (0, 0)  # never the draining parent
                assert key in children
                assert fallback_chain(key) == (key, "s0")
            else:
                assert key in ("s1", "s2", "s3")
                assert fallback_chain(key) == (key,)
        # sub-boxes tile the parent cell
        area = sum(
            router.shard_box(k).width * router.shard_box(k).height
            for k in children
        )
        parent = router.shard_box("s0")
        assert area == pytest.approx(parent.width * parent.height)

    def test_double_split_rejected(self):
        router = ClusterRouter(ShardMap(REGION, 2, 2))
        router.split(1, 2)
        with pytest.raises(ValueError):
            router.split(1, 2)


class TestHotShardBalancer:
    def _observe(self, balancer, key, n):
        for _ in range(n):
            balancer.observe(key, is_task=True)

    def test_hot_cell_split_decision(self):
        router = ClusterRouter(ShardMap(REGION, 2, 2))
        balancer = HotShardBalancer(
            BalancerConfig(window=100, min_tasks=10, split_share=0.5)
        )
        self._observe(balancer, "s2", 80)
        self._observe(balancer, "s1", 20)
        assert balancer.decide(router, {0: 0, 1: 1, 2: 0, 3: 1}, [0, 1]) == [
            ("split", 2)
        ]

    def test_migrate_decision_moves_hot_family_to_coolest(self):
        router = ClusterRouter(ShardMap(REGION, 2, 2))
        balancer = HotShardBalancer(
            BalancerConfig(
                window=100, min_tasks=10, split_share=0.99, migrate_imbalance=1.3
            )
        )
        ownership = {0: 0, 1: 1, 2: 0, 3: 1}
        self._observe(balancer, "s0", 45)
        self._observe(balancer, "s2", 40)
        self._observe(balancer, "s1", 15)
        actions = balancer.decide(router, ownership, [0, 1])
        assert actions == [("migrate", 0, 1)]

    def test_migrate_decision_prefers_an_idle_owner(self):
        """Owners are whatever the coordinator names its peers; an owner
        listed with no family (a late joiner) is the coolest of all."""
        router = ClusterRouter(ShardMap(REGION, 2, 2))
        balancer = HotShardBalancer(
            BalancerConfig(
                window=100, min_tasks=10, split_share=0.99, migrate_imbalance=1.3
            )
        )
        ownership = {0: "w0", 1: "w1", 2: "w0", 3: "w1"}
        self._observe(balancer, "s0", 45)
        self._observe(balancer, "s2", 40)
        self._observe(balancer, "s1", 15)
        actions = balancer.decide(router, ownership, ["w0", "w1", "w2"])
        assert actions == [("migrate", 0, "w2")]

    def test_quiet_window_decides_nothing(self):
        router = ClusterRouter(ShardMap(REGION, 2, 2))
        balancer = HotShardBalancer(BalancerConfig(window=100, min_tasks=50))
        self._observe(balancer, "s0", 10)
        assert balancer.decide(router, {0: 0, 1: 0, 2: 0, 3: 0}, [0]) == []

    def test_config_validation(self):
        with pytest.raises(ValueError, match="min_tasks"):
            BalancerConfig(min_tasks=0)
        with pytest.raises(ValueError, match="window"):
            BalancerConfig(window=0)
        with pytest.raises(ValueError, match="split_share"):
            BalancerConfig(split_share=1.5)
        with pytest.raises(ValueError, match="migrate_imbalance"):
            BalancerConfig(migrate_imbalance=1.0)

    def test_window_resets_after_decision(self):
        balancer = HotShardBalancer(BalancerConfig(window=10, min_tasks=5))
        self._observe(balancer, "s0", 10)
        assert balancer.window_full
        balancer.decide(ClusterRouter(ShardMap(REGION, 2, 2)), {0: 0}, [0])
        assert not balancer.window_full

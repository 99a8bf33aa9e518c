"""v5 delta-snapshot format: one version, structured errors, chain property.

Three guarantees pinned here:

* **one version** — only v5 documents restore; v4 documents (a slot
  table, a decision log and a distance reservoir), v3 documents
  (registrations as ``[id, [path]]`` pairs) and v1/v2 documents (written
  before the base/delta split existed) are refused;
* **structured failure** — every malformed document or broken chain
  raises :class:`~repro.cluster.snapshot.SnapshotError` with a *stable*
  machine-readable ``code`` (the message text is allowed to change, the
  code is not), and stays a ``ValueError`` for older callers;
* **bit-identical composition** — at every checkpoint index ``k`` along
  a churning stream, ``compose_chain(base + deltas[:k])`` equals a full
  export taken at the same instant, float for float, and the restored
  shard's future draws match the original's.

Plus the telemetry-cost assertions the checkpoint metrics rely on: a
below-capacity reservoir keeps no overwrite bookkeeping, and ``gauge_fn``
callbacks are only sampled when a registry snapshot is actually taken.
"""

from __future__ import annotations

import copy
import json

import numpy as np
import pytest

from repro.cluster.snapshot import (
    SNAPSHOT_FORMAT,
    SNAPSHOT_VERSION,
    SnapshotError,
    compose_chain,
    delta_snapshot,
    restore_chain,
    restore_shard,
    snapshot_shard,
)
from repro.crowdsourcing import MatchingServer
from repro.crowdsourcing.entities import TaskReport
from repro.geometry import Box
from repro.obs import MetricsRegistry
from repro.service.metrics import SampleReservoir
from repro.service.shard import ShardServer

from .conftest import DAMAGED_DELTAS


def _build_shard(n_workers: int = 48, seed: int = 3):
    """A small shard with registrations, tasks, and live RNG state."""
    shard = ShardServer(
        "s0", Box.square(100.0), grid_nx=8, epsilon=0.5,
        budget_capacity=4.0, seed=seed,
    )
    rng = np.random.default_rng(seed + 1)
    ids = list(range(n_workers))
    shard.register_cohort(ids, [rng.uniform(0.0, 100.0, 2) for _ in ids])
    for task in range(4):
        shard.submit_task(task, rng.uniform(0.0, 100.0, 2))
    return shard, rng


def _state_json(state: dict) -> str:
    return json.dumps(state, sort_keys=True)


def _as_v4(doc: dict) -> dict:
    """Downgrade a v5 base to the document a v4 runtime would have written:
    the slot table in place of ``built_at``, a decision log, the
    always-true late-registration flag and a reservoir of distances in
    place of their total."""
    down = copy.deepcopy(doc)
    down["version"] = 4
    server = down["state"]["server"]
    built_at, ids = server.pop("built_at"), server["worker_ids"]
    server["slot_ids"] = (
        None if built_at is None else sorted(ids[:built_at]) + ids[built_at:]
    )
    server["allow_late_registration"] = True
    server["assignments"] = []
    server["unassigned_tasks"] = []
    metrics = down["state"]["metrics"]
    metrics["reported_distances"] = {
        "capacity": 4096,
        "count": metrics["tasks_assigned"],
        "total": metrics.pop("reported_distance_total"),
        "values": [],
        "state": 0,
    }
    return down


def _as_v3(doc: dict) -> dict:
    """Downgrade further: v3 wrote registrations as ``[id, [path
    digits]]`` pairs."""
    down = _as_v4(doc)
    down["version"] = 3
    server = down["state"]["server"]
    c = down["state"]["tree"]["branching"]
    depth = down["state"]["tree"]["depth"]
    server["reports"] = [
        [wid, [leaf // c ** (depth - 1 - j) % c for j in range(depth)]]
        for wid, leaf in zip(server.pop("worker_ids"), server.pop("leaves"))
    ]
    return down


def _as_v2(doc: dict) -> dict:
    """Downgrade further: v2 predates the base/delta kinds."""
    down = _as_v3(doc)
    down["version"] = 2
    down.pop("kind", None)
    down.pop("checkpoint", None)
    return down


def _as_v1(doc: dict) -> dict:
    """Downgrade further: v1 carried raw sample lists, not reservoirs."""
    down = _as_v2(doc)
    down["version"] = 1
    metrics = down["state"]["metrics"]
    for series in ("latencies_s", "reported_distances"):
        metrics[series] = list(metrics[series]["values"])
    return down


class TestCompat:
    # snapshots never outlive the coordinator that chained them, so no
    # pre-v5 document exists to read: only v5 restores

    def test_v4_document_is_refused(self):
        shard, _ = _build_shard()
        doc = _as_v4(snapshot_shard(shard, checkpoint=0))
        for restore in (restore_shard, lambda d: restore_chain([d])):
            with pytest.raises(SnapshotError) as err:
                restore(doc)
            assert err.value.code == "snapshot-unsupported-version"

    def test_v3_document_is_refused(self):
        shard, _ = _build_shard()
        doc = _as_v3(snapshot_shard(shard, checkpoint=0))
        for restore in (restore_shard, lambda d: restore_chain([d])):
            with pytest.raises(SnapshotError) as err:
                restore(doc)
            assert err.value.code == "snapshot-unsupported-version"

    def test_v2_document_is_refused(self):
        shard, _ = _build_shard()
        doc = _as_v2(snapshot_shard(shard))
        with pytest.raises(SnapshotError) as err:
            restore_shard(doc)
        assert err.value.code == "snapshot-unsupported-version"

    def test_v1_document_with_raw_sample_lists_is_refused(self):
        shard, _ = _build_shard()
        doc = _as_v1(snapshot_shard(shard))
        for restore in (restore_shard, lambda d: restore_chain([d])):
            with pytest.raises(SnapshotError) as err:
                restore(doc)
            assert err.value.code == "snapshot-unsupported-version"

    def test_v2_document_is_not_a_single_element_chain(self):
        shard, _ = _build_shard()
        doc = _as_v2(snapshot_shard(shard))
        for chain in (compose_chain, restore_chain):
            with pytest.raises(SnapshotError) as err:
                chain([doc])
            assert err.value.code == "snapshot-unsupported-version"

    def test_v2_base_refuses_deltas(self):
        # v1/v2 predate deltas: nothing may chain onto them
        shard, rng = _build_shard()
        old = _as_v2(snapshot_shard(shard, checkpoint=0))
        cursor = shard.checkpoint_cursor()
        shard.submit_task(99, rng.uniform(0.0, 100.0, 2))
        delta = delta_snapshot(shard, None, cursor, checkpoint=1, parent=0)
        with pytest.raises(SnapshotError) as err:
            compose_chain([old, delta])
        assert err.value.code == "snapshot-unsupported-version"


class TestStructuredErrors:
    """Every refusal carries its documented stable code."""

    def _base(self):
        shard, _ = _build_shard(n_workers=8)
        return snapshot_shard(shard, checkpoint=0)

    def _delta(self, checkpoint: int, parent: int) -> dict:
        shard, rng = _build_shard(n_workers=8)
        cursor = shard.checkpoint_cursor()
        shard.submit_task(50, rng.uniform(0.0, 100.0, 2))
        return delta_snapshot(
            shard, None, cursor, checkpoint=checkpoint, parent=parent
        )

    @pytest.mark.parametrize("payload", [None, 17, [], "snapshot"])
    def test_non_dict_payload(self, payload):
        with pytest.raises(SnapshotError) as err:
            restore_shard(payload)
        assert err.value.code == "snapshot-bad-format"

    def test_wrong_format_string(self):
        with pytest.raises(SnapshotError) as err:
            restore_shard({**self._base(), "format": "other-format"})
        assert err.value.code == "snapshot-bad-format"

    def test_unsupported_version(self):
        with pytest.raises(SnapshotError) as err:
            restore_shard({**self._base(), "version": 99})
        assert err.value.code == "snapshot-unsupported-version"

    def test_missing_fields(self):
        with pytest.raises(SnapshotError) as err:
            restore_shard({"format": SNAPSHOT_FORMAT, "version": SNAPSHOT_VERSION})
        assert err.value.code == "snapshot-missing-fields"

    def test_delta_alone_is_refused(self):
        with pytest.raises(SnapshotError) as err:
            restore_shard(self._delta(1, 0))
        assert err.value.code == "snapshot-delta-alone"

    def test_empty_chain(self):
        with pytest.raises(SnapshotError) as err:
            compose_chain([])
        assert err.value.code == "snapshot-chain-empty"

    def test_chain_must_start_with_base(self):
        with pytest.raises(SnapshotError) as err:
            compose_chain([self._delta(1, 0)])
        assert err.value.code == "snapshot-chain-base"

    def test_base_after_first_position(self):
        with pytest.raises(SnapshotError) as err:
            compose_chain([self._base(), self._base()])
        assert err.value.code == "snapshot-chain-order"

    def test_parent_mismatch(self):
        with pytest.raises(SnapshotError) as err:
            compose_chain([self._base(), self._delta(2, 1)])
        assert err.value.code == "snapshot-chain-broken"

    def test_out_of_order_deltas(self):
        shard, rng = _build_shard(n_workers=8)
        base = snapshot_shard(shard, checkpoint=0)
        deltas = []
        for ckpt in (1, 2):
            cursor = shard.checkpoint_cursor()
            shard.submit_task(50 + ckpt, rng.uniform(0.0, 100.0, 2))
            deltas.append(
                delta_snapshot(
                    shard, None, cursor, checkpoint=ckpt, parent=ckpt - 1
                )
            )
        # in order the chain composes; swapped it must refuse, not corrupt
        compose_chain([base, *deltas])
        with pytest.raises(SnapshotError) as err:
            compose_chain([base, deltas[1], deltas[0]])
        assert err.value.code == "snapshot-chain-broken"

    def test_delta_missing_fields_inside_chain(self):
        broken = self._delta(1, 0)
        broken.pop("delta")
        with pytest.raises(SnapshotError) as err:
            compose_chain([self._base(), broken])
        assert err.value.code == "snapshot-missing-fields"

    @pytest.mark.parametrize("damage", DAMAGED_DELTAS.values(), ids=DAMAGED_DELTAS)
    def test_a_damaged_delta_body_is_bad_format(self, damage):
        shard, rng = _build_shard(n_workers=8)
        base = snapshot_shard(shard, checkpoint=0)
        cursor = shard.checkpoint_cursor()
        shard.submit_task(50, rng.uniform(0.0, 100.0, 2))
        delta = delta_snapshot(shard, None, cursor, checkpoint=1, parent=0)
        restore_chain([base, copy.deepcopy(delta)])  # undamaged it restores
        damage(delta)
        with pytest.raises(SnapshotError) as err:
            restore_chain([base, delta])
        assert err.value.code == "snapshot-bad-format"

    def test_snapshot_error_is_a_value_error(self):
        # older callers catch ValueError (and match on the message);
        # the subclassing is part of the compat contract
        assert issubclass(SnapshotError, ValueError)
        with pytest.raises(ValueError, match="version"):
            restore_shard({**self._base(), "version": 99})


class TestMalformedMatcherSection:
    """A base whose matcher section fails its checks is refused as
    ``snapshot-bad-format`` before anything is rebuilt from it."""

    def _doc(self):
        shard, _ = _build_shard(n_workers=6)
        doc = snapshot_shard(shard, checkpoint=0)
        server = doc["state"]["server"]
        assert server["built_at"] is not None and server["consumed_slots"]
        return doc, server

    def _refused(self, doc):
        with pytest.raises(SnapshotError) as err:
            restore_shard(doc)
        assert err.value.code == "snapshot-bad-format"

    def test_leaf_outside_the_tree(self):
        doc, server = self._doc()
        tree = doc["state"]["tree"]
        server["leaves"][0] = tree["branching"] ** tree["depth"]
        self._refused(doc)
        server["leaves"][0] = -1
        self._refused(doc)

    def test_leaf_not_an_int(self):
        for bad in (1.5, "3", None):
            doc, server = self._doc()
            server["leaves"][0] = bad
            self._refused(doc)
        doc, server = self._doc()
        server["leaves"] = None
        self._refused(doc)

    def test_built_at_outside_the_registrations(self):
        for bad in (-1, 7, 1.5, "3"):
            doc, server = self._doc()
            assert len(server["worker_ids"]) == 6
            server["built_at"] = bad
            self._refused(doc)

    def test_consumed_slot_listed_twice(self):
        doc, server = self._doc()
        server["consumed_slots"].append(server["consumed_slots"][0])
        self._refused(doc)

    def test_consumed_slot_outside_the_table(self):
        doc, server = self._doc()
        server["consumed_slots"].append(len(server["worker_ids"]))
        self._refused(doc)

    def test_consumed_slots_without_a_table(self):
        fresh = ShardServer(
            "s0", Box.square(100.0), grid_nx=8, epsilon=0.5,
            budget_capacity=4.0, seed=3,
        )
        fresh.register_cohort([0, 1, 2, 3], np.full((4, 2), 50.0))
        doc = snapshot_shard(fresh)
        assert doc["state"]["server"]["built_at"] is None
        doc["state"]["server"]["consumed_slots"] = [0]
        self._refused(doc)

    def test_registration_columns_differ_in_length(self):
        doc, server = self._doc()
        server["leaves"].pop()
        self._refused(doc)


class TestChainProperty:
    """base + deltas[:k] is bit-identical to a full export at every k."""

    N_CHECKPOINTS = 5

    def _grow_chain(self):
        shard, rng = _build_shard()
        chain = [snapshot_shard(shard, checkpoint=0)]
        cursor = shard.checkpoint_cursor()
        fulls = [snapshot_shard(shard)]
        next_id, task = 1000, 100
        for ckpt in range(1, self.N_CHECKPOINTS + 1):
            ids = list(range(next_id, next_id + 6))
            shard.register_cohort(
                ids, [rng.uniform(0.0, 100.0, 2) for _ in ids]
            )
            next_id += 6
            for _ in range(3):
                shard.submit_task(task, rng.uniform(0.0, 100.0, 2))
                task += 1
            chain.append(
                delta_snapshot(
                    shard, None, cursor, checkpoint=ckpt, parent=ckpt - 1
                )
            )
            cursor = shard.checkpoint_cursor()
            fulls.append(snapshot_shard(shard))
        return shard, rng, chain, fulls

    def test_composed_state_matches_full_export_at_every_index(self):
        _, _, chain, fulls = self._grow_chain()
        for k in range(len(chain)):
            composed = compose_chain(chain[: k + 1])
            assert _state_json(composed["state"]) == _state_json(
                fulls[k]["state"]
            ), f"chain diverged from the full export at checkpoint {k}"

    def test_restored_shard_draws_identically(self):
        # the composed RNG state must make the next obfuscation draw —
        # and therefore every future assignment — identical
        shard, rng, chain, _ = self._grow_chain()
        restored, pending = restore_chain(chain)
        assert pending == ([], [])
        assert _state_json(restored.export_state()) == _state_json(
            shard.export_state()
        )
        loc = rng.uniform(0.0, 100.0, 2)
        assert restored.submit_task(999, loc) == shard.submit_task(999, loc)
        # the extra task records a wall-clock latency sample (never equal
        # across two processes), so compare everything but that series
        after, mirror = restored.export_state(), shard.export_state()
        after["metrics"].pop("latencies_s")
        mirror["metrics"].pop("latencies_s")
        assert _state_json(after) == _state_json(mirror)

    def test_pending_buffer_rides_the_latest_delta(self):
        shard, rng = _build_shard()
        base = snapshot_shard(shard, checkpoint=0)
        cursor = shard.checkpoint_cursor()
        buffered = ([7000, 7001], [rng.uniform(0.0, 100.0, 2) for _ in "ab"])
        delta = delta_snapshot(
            shard, buffered, cursor, checkpoint=1, parent=0
        )
        _, pending = restore_chain([base, delta])
        assert pending[0] == [7000, 7001]
        np.testing.assert_allclose(pending[1], buffered[1])

    def test_delta_export_is_non_destructive(self):
        # the mesh retries whole barrier rounds: the same cursor must
        # answer the same delta twice, bit for bit
        shard, rng = _build_shard()
        base = snapshot_shard(shard, checkpoint=0)
        cursor = shard.checkpoint_cursor()
        shard.submit_task(77, rng.uniform(0.0, 100.0, 2))
        first = delta_snapshot(shard, None, cursor, checkpoint=1, parent=0)
        second = delta_snapshot(shard, None, cursor, checkpoint=1, parent=0)
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )
        compose_chain([base, first])


class TestNoDecisionLog:
    """A serving shard keeps no decision log: its callers keep the
    decisions it returns, and its checkpoints carry none."""

    def test_tasks_that_find_no_worker_leave_the_matcher_state_alone(self):
        shard, rng = _build_shard(n_workers=2)
        for task in range(10, 12):
            shard.submit_task(task, rng.uniform(0.0, 100.0, 2))
        assert shard.available_workers == 0
        before = shard.export_state()["server"]
        for task in range(20, 25):
            assert shard.submit_task(task, rng.uniform(0.0, 100.0, 2)) is None
        assert shard.export_state()["server"] == before

    def test_only_the_paper_facing_submit_fills_the_result(self):
        shard, _ = _build_shard()
        assert shard.metrics.tasks_assigned == 4
        assert shard.server.result.size == 0
        assert shard.server.result.unassigned_tasks == []
        server = MatchingServer(shard.tree)
        leaf = int(shard.tree.leaf_index[0])
        server.register_cohort([5], [leaf])
        assert server.submit_task(TaskReport(task_id=1, leaf=leaf)) == 5
        assert server.submit_task(TaskReport(task_id=2, leaf=leaf)) is None
        assert [(a.task, a.worker) for a in server.result.assignments] == [(1, 5)]
        assert server.result.unassigned_tasks == [2]


class TestBuiltAt:
    """A base carries ``built_at`` and restore derives the slot table
    from it: sorted ids up to the build, then registration order."""

    TAIL = range(500, 512)

    @staticmethod
    def _stages():
        """Each stage's rows: before the first task, the build, and
        registrations after it (ids out of order, so the sort shows)."""
        return [
            ([9, 3, 7, 1], []),
            ([], [100]),
            ([8, 2, 6, 0, 5], [101, 102]),
        ]

    def _drive(self, shard, rng, registrations, tasks):
        if registrations:
            shard.register_cohort(
                registrations,
                [rng.uniform(0.0, 100.0, 2) for _ in registrations],
            )
        return [shard.submit_task(t, rng.uniform(0.0, 100.0, 2)) for t in tasks]

    def _shard(self):
        shard = ShardServer(
            "s0", Box.square(100.0), grid_nx=8, epsilon=0.5,
            budget_capacity=4.0, seed=5,
        )
        return shard, np.random.default_rng(6)

    def test_built_at_round_trips_through_every_base(self):
        uninterrupted, rng = self._shard()
        for stage in self._stages():
            self._drive(uninterrupted, rng, *stage)
        tail_locations = rng.uniform(0.0, 100.0, (len(self.TAIL), 2))
        expected = [
            uninterrupted.submit_task(t, loc)
            for t, loc in zip(self.TAIL, tail_locations)
        ]
        assert uninterrupted.available_workers == 0  # the tail drains the pool

        shard, rng = self._shard()
        bases, deltas = [], []
        for ckpt, stage in enumerate(self._stages()):
            self._drive(shard, rng, *stage)
            if ckpt:
                deltas.append(
                    delta_snapshot(shard, None, cursor, checkpoint=ckpt, parent=ckpt - 1)
                )
            bases.append(snapshot_shard(shard, checkpoint=ckpt))
            cursor = shard.checkpoint_cursor()
        assert [b["state"]["server"]["built_at"] for b in bases] == [None, 4, 4]
        full = snapshot_shard(shard, checkpoint=len(bases) - 1)
        for k, base in enumerate(bases):
            # the base taken at stage k and every delta after it
            chain = [base, *deltas[k:]]
            assert _state_json(compose_chain(chain)["state"]) == _state_json(
                full["state"]
            ), f"chain from base {k} diverged from the full export"
            restored, _ = restore_chain(json.loads(json.dumps(chain)))
            assert restored.export_state()["server"] == full["state"]["server"]
            assert restored.server._ids == [1, 3, 7, 9, 8, 2, 6, 0, 5]
            assert [
                restored.submit_task(t, loc)
                for t, loc in zip(self.TAIL, tail_locations)
            ] == expected


class TestTelemetryCost:
    """Checkpoint telemetry must cost ~nothing while traffic flows."""

    def test_below_capacity_reservoir_keeps_no_overwrite_state(self):
        res = SampleReservoir(capacity=64, seed=1)
        for i in range(64):
            res.record(float(i))
        # no evictions yet: the delta-export bookkeeping stays empty
        assert res._gen == {}
        assert res._mutseq == 0
        delta = res.export_delta({"len": 0, "mut": 0})
        assert delta["appended"] == [float(i) for i in range(64)]
        assert delta["set"] == []

    def test_gauge_fn_is_only_sampled_at_snapshot_time(self):
        registry = MetricsRegistry()
        calls = []
        registry.gauge_fn("test.chain_len", lambda: calls.append(1) or 3.0)
        registry.counter("test.compacted_ops", 5)
        assert calls == []  # registering and counting never samples it
        snap = registry.snapshot()
        assert len(calls) == 1
        assert snap["gauges"]["test.chain_len"] == 3.0
        assert snap["counters"]["test.compacted_ops"] == 5

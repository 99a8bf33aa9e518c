"""v4 delta-snapshot format: one version, structured errors, chain property.

Three guarantees pinned here:

* **one version** — only v4 documents restore; v3 documents (registrations
  as ``[id, [path]]`` pairs) and v1/v2 documents (written before the
  base/delta split existed) are refused;
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
from repro.geometry import Box
from repro.obs import MetricsRegistry
from repro.service.metrics import SampleReservoir
from repro.service.shard import ShardServer


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


def _as_v3(doc: dict) -> dict:
    """Downgrade a v4 base to the document a v3 runtime would have written:
    registrations as ``[id, [path digits]]`` pairs."""
    down = copy.deepcopy(doc)
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
    # pre-v4 document exists to read: only v4 restores

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
        assert server["slot_ids"] is not None and server["consumed_slots"]
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

    def test_slot_table_not_a_permutation(self):
        doc, server = self._doc()
        server["slot_ids"][1] = server["slot_ids"][0]
        self._refused(doc)
        doc, server = self._doc()
        server["slot_ids"].pop()
        self._refused(doc)

    def test_consumed_slot_listed_twice(self):
        doc, server = self._doc()
        server["consumed_slots"].append(server["consumed_slots"][0])
        self._refused(doc)

    def test_consumed_slot_outside_the_table(self):
        doc, server = self._doc()
        server["consumed_slots"].append(len(server["slot_ids"]))
        self._refused(doc)

    def test_consumed_slots_without_a_table(self):
        fresh = ShardServer(
            "s0", Box.square(100.0), grid_nx=8, epsilon=0.5,
            budget_capacity=4.0, seed=3,
        )
        fresh.register_cohort([0, 1, 2, 3], np.full((4, 2), 50.0))
        doc = snapshot_shard(fresh)
        assert doc["state"]["server"]["slot_ids"] is None
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

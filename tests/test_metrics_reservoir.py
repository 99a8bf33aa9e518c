"""Tests for bounded telemetry retention (SampleReservoir + ShardMetrics)."""

import json

import numpy as np
import pytest

from repro.service.metrics import (
    RESERVOIR_CAPACITY,
    SampleReservoir,
    ShardMetrics,
    build_report,
    percentile,
)


class TestSampleReservoir:
    def test_exact_below_capacity(self):
        res = SampleReservoir(capacity=10)
        res.extend(float(v) for v in range(7))
        assert list(res) == [float(v) for v in range(7)]
        assert res.count == 7
        assert res.mean == pytest.approx(3.0)

    def test_caps_retention_but_keeps_exact_aggregates(self):
        res = SampleReservoir(capacity=50, seed=1)
        values = np.arange(10_000, dtype=np.float64)
        res.extend(values)
        assert len(res) == 50
        assert res.count == 10_000
        assert res.mean == pytest.approx(values.mean())
        assert set(res.values) <= set(values)

    def test_retained_sample_is_roughly_uniform(self):
        # the retained set should span the stream, not hug its head/tail
        res = SampleReservoir(capacity=500, seed=3)
        res.extend(float(v) for v in range(20_000))
        assert 6_000 < np.mean(res.values) < 14_000
        assert percentile(res, 50) == pytest.approx(10_000, rel=0.2)

    def test_deterministic_given_seed(self):
        a = SampleReservoir(capacity=8, seed=5)
        b = SampleReservoir(capacity=8, seed=5)
        for v in range(1000):
            a.record(float(v))
            b.record(float(v))
        assert a == b
        c = SampleReservoir(capacity=8, seed=6)
        c.extend(float(v) for v in range(1000))
        assert c.values != a.values  # different seed, different victims

    def test_round_trip_is_bit_exact_and_resumes_identically(self):
        a = SampleReservoir(capacity=16, seed=9)
        a.extend(float(v) for v in range(300))
        b = SampleReservoir.from_dict(json.loads(json.dumps(a.to_dict())))
        assert a == b
        for v in range(300, 600):
            a.record(float(v))
            b.record(float(v))
        assert a == b  # replacement decisions replay identically

    def test_serialize_restore_extend_keeps_exact_aggregates(self):
        # property test over random splits: serialize mid-stream,
        # restore, extend the restored copy with the remainder — the
        # exact aggregates (count/total/mean) must equal a single
        # uninterrupted pass, whatever the capacity or cut point
        rng = np.random.default_rng(42)
        for trial in range(30):
            capacity = int(rng.integers(1, 64))
            n = int(rng.integers(1, 2_000))
            cut = int(rng.integers(0, n + 1))
            values = rng.normal(50.0, 20.0, size=n)

            straight = SampleReservoir(capacity=capacity, seed=trial)
            straight.extend(values)

            first = SampleReservoir(capacity=capacity, seed=trial)
            first.extend(values[:cut])
            resumed = SampleReservoir.from_dict(
                json.loads(json.dumps(first.to_dict()))
            )
            resumed.extend(values[cut:])

            assert resumed.count == straight.count == n
            assert resumed.total == pytest.approx(straight.total, rel=1e-12)
            assert resumed.mean == pytest.approx(values.mean(), rel=1e-12)
            # the rng state rode the snapshot too, so even the retained
            # sample (which victims were kept) is bit-identical
            assert resumed == straight

    def test_snapshot_carries_every_v2_field(self):
        res = SampleReservoir(capacity=4, seed=2)
        res.extend([1.0, 2.0, 3.0])
        doc = res.to_dict()
        assert set(doc) == {"capacity", "count", "total", "values", "state"}
        assert doc["count"] == 3 and doc["total"] == pytest.approx(6.0)
        json.dumps(doc)  # checkpoint payloads must be JSON-pure

    def test_refuses_legacy_raw_lists(self):
        # v1 snapshots carried raw sample lists; only reservoirs restore
        with pytest.raises(ValueError):
            SampleReservoir.from_dict([1.0, 2.0, 3.0])

    def test_rejects_bad_payloads(self):
        with pytest.raises(ValueError):
            SampleReservoir(capacity=0)
        with pytest.raises(ValueError):
            SampleReservoir.from_dict({"capacity": 4})
        with pytest.raises(ValueError):
            SampleReservoir.from_dict(
                {"capacity": 1, "count": 1, "total": 3.0, "values": [1.0, 2.0], "state": 0}
            )


class TestShardMetricsRetention:
    def test_series_are_bounded(self):
        metrics = ShardMetrics(0)
        for i in range(RESERVOIR_CAPACITY + 500):
            metrics.record_assignment(0.001, float(i % 17))
        assert metrics.tasks_assigned == RESERVOIR_CAPACITY + 500
        assert len(metrics.latencies_s) == RESERVOIR_CAPACITY
        # distances are only averaged: one exact total, no samples
        snap = metrics.snapshot(epsilon=0.5, ledger=_StubLedger())
        expected = np.mean([float(i % 17) for i in range(RESERVOIR_CAPACITY + 500)])
        assert snap.mean_reported_distance == pytest.approx(expected)

    def test_round_trip_preserves_reservoir_state(self):
        metrics = ShardMetrics("s1/2")
        for i in range(100):
            metrics.record_assignment(0.001 * i, float(i))
        metrics.record_unassigned(0.5)
        restored = ShardMetrics.from_dict(json.loads(json.dumps(metrics.to_dict())))
        assert restored == metrics

    def test_checkpoint_size_is_bounded(self):
        short = ShardMetrics(3)
        long = ShardMetrics(3)
        for i in range(RESERVOIR_CAPACITY):
            short.record_assignment(0.001, 1.0)
        for i in range(RESERVOIR_CAPACITY * 4):
            long.record_assignment(0.001, 1.0)
        short_doc = len(json.dumps(short.to_dict()))
        long_doc = len(json.dumps(long.to_dict()))
        # 4x the stream must not mean 4x the checkpoint
        assert long_doc < short_doc * 1.1

    def test_build_report_uses_exact_distance_stats(self):
        metrics = ShardMetrics("s0", latencies_s=SampleReservoir(capacity=2))
        for distance in (1.0, 2.0, 3.0, 4.0, 10.0):
            metrics.record_assignment(0.001, distance)
        metrics.record_unassigned(0.001)
        row = {
            "snapshot": metrics.snapshot(epsilon=0.5, ledger=_StubLedger()),
            "latencies_s": list(metrics.latencies_s),
            "distance_total": metrics.reported_distance_total,
            "distance_count": metrics.tasks_assigned,
        }
        report = build_report([row, row])
        # the reservoir retains 2 of the 6 latencies; an unassigned task
        # has no distance, so the mean is over the 5 assigned ones
        assert len(metrics.latencies_s) == 2
        assert metrics.reported_distance_total == 20.0
        assert row["snapshot"].mean_reported_distance == 4.0
        assert report.mean_reported_distance == pytest.approx(4.0)
        assert report.shards == (row["snapshot"], row["snapshot"])
        assert report.latency_p50_ms == pytest.approx(1.0)


class _StubLedger:
    capacity = 2.0

    def min_remaining(self):
        return 1.0

    def mean_remaining(self):
        return 1.5

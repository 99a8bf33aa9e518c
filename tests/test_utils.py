"""Tests for repro.utils: RNG plumbing, timing, memory probes."""

import time

import numpy as np
import pytest

from repro.utils import (
    Stopwatch,
    ensure_rng,
    keyed_shard_seed,
    measure_peak_memory,
    spawn_rng,
)


class TestKeyedShardSeed:
    """The "keyed" seeding convention is a compatibility surface.

    Every backend — in-process, engine, mesh workers, and remote
    clients across a gateway socket — derives shard RNG seeds through
    :func:`keyed_shard_seed`. Snapshots and journals recorded by one
    process must replay bit-identically in another, so the exact output
    values are pinned here: if this test fails, the change breaks every
    stored snapshot and cross-process conformance, and needs a format
    version bump, not a test update.
    """

    #: (root seed, routing key) -> exact derived seed. Wire-frozen.
    PINNED = {
        (0, "s0"): 3311277879,
        (0, "s1"): 3878469885,
        (0, "s3/1"): 3234084390,
        (11, "s0"): 4047203969,
        (11, "s2"): 1214446782,
        (2024, "s5/3"): 1511350677,
    }

    def test_exact_values_are_pinned(self):
        for (seed, key), want in self.PINNED.items():
            assert keyed_shard_seed(seed, key) == want, (seed, key)

    def test_depends_on_both_seed_and_key(self):
        assert keyed_shard_seed(0, "s0") != keyed_shard_seed(1, "s0")
        assert keyed_shard_seed(0, "s0") != keyed_shard_seed(0, "s1")

    def test_split_subshard_keys_are_distinct_streams(self):
        fam = keyed_shard_seed(7, "s3")
        children = {keyed_shard_seed(7, f"s3/{i}") for i in range(4)}
        assert len(children) == 4
        assert fam not in children

    def test_stable_across_calls_and_processes(self):
        # pure function of (seed, key): no hidden global state
        assert keyed_shard_seed(5, "s2") == keyed_shard_seed(5, "s2")
        assert 0 <= keyed_shard_seed(5, "s2") < 2**32


class TestEnsureRng:
    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_is_deterministic(self):
        a = ensure_rng(42).random(5)
        b = ensure_rng(42).random(5)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(ensure_rng(1).random(5), ensure_rng(2).random(5))

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert ensure_rng(gen) is gen


class TestSpawnRng:
    def test_count(self):
        children = spawn_rng(ensure_rng(0), 4)
        assert len(children) == 4

    def test_children_are_independent_streams(self):
        children = spawn_rng(ensure_rng(0), 2)
        assert not np.array_equal(children[0].random(8), children[1].random(8))

    def test_reproducible_from_parent_seed(self):
        a = [g.random(3) for g in spawn_rng(ensure_rng(5), 3)]
        b = [g.random(3) for g in spawn_rng(ensure_rng(5), 3)]
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_zero_children(self):
        assert spawn_rng(ensure_rng(0), 0) == []

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn_rng(ensure_rng(0), -1)


class TestStopwatch:
    def test_accumulates(self):
        watch = Stopwatch()
        with watch.timed():
            time.sleep(0.01)
        first = watch.elapsed
        with watch.timed():
            time.sleep(0.01)
        assert watch.elapsed > first >= 0.01

    def test_laps_recorded(self):
        watch = Stopwatch()
        for _ in range(3):
            with watch.timed():
                pass
        assert len(watch.laps) == 3
        assert abs(sum(watch.laps) - watch.elapsed) < 1e-9

    def test_reset(self):
        watch = Stopwatch()
        with watch.timed():
            pass
        watch.reset()
        assert watch.elapsed == 0.0
        assert watch.laps == []

    def test_records_time_on_exception(self):
        watch = Stopwatch()
        with pytest.raises(RuntimeError):
            with watch.timed():
                raise RuntimeError("boom")
        assert len(watch.laps) == 1


class TestMeasurePeakMemory:
    def test_reports_positive_peak(self):
        result = {}
        with measure_peak_memory(result):
            _ = [0] * 100_000
        assert result["peak_mib"] > 0

    def test_larger_allocation_reports_more(self):
        small, big = {}, {}
        with measure_peak_memory(small):
            _ = np.zeros(1000)
        with measure_peak_memory(big):
            _ = np.zeros(1_000_000)
        assert big["peak_mib"] > small["peak_mib"]

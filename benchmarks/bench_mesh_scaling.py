"""Mesh scaling benchmark: tasks/sec vs socket-attached worker count.

Replays one timed Gaussian workload (identical event list, identical
shard lattice and seeds) against

* the single-process :class:`~repro.service.engine.ShardedAssignmentEngine`
  (the PR-1 baseline), and
* the :class:`~repro.mesh.MeshCoordinator` at 1, 2 and 4 worker
  processes dialed in over loopback TCP.

Setup (worker spawn, handshakes, HST builds) stays outside the timed
window; the clock measures serving only. Checkpointing is disabled so
the number is pure routing + matching + wire throughput — compared with
the engine, the delta is the cost of moving each dispatch across a
socket to another process.

The emitted ``BENCH`` JSON records ``cpu_count`` next to the speedups:
scaling is physically bounded by the cores the container actually has —
on a single-core machine the 4-worker run measures queue overhead, not
parallelism, so judge the speedup against ``cpu_count``.

Run:  PYTHONPATH=src python benchmarks/bench_mesh_scaling.py
Also collectable by pytest (correctness gates only; throughput is
reported, not gated — socket loopback variance is too wide for CI):
      PYTHONPATH=src python -m pytest benchmarks/bench_mesh_scaling.py -q
"""

from __future__ import annotations

import os
import time

from repro.mesh import MeshCoordinator, spawn_local_worker
from repro.service import LoadConfig, LoadGenerator, RequestQueue

try:  # package import under pytest, plain import as a script
    from ._common import emit_bench
except ImportError:
    from _common import emit_bench

WORKER_COUNTS = (1, 2, 4)
SHARDS = (2, 2)
CONFIG = LoadConfig(
    workload="gaussian",
    n_workers=8000,
    n_tasks=4000,
    task_rate=400.0,
    shards=SHARDS,
    grid_nx=14,
    batch_size=256,
    seed=0,
)


def _build_stream(config: LoadConfig = CONFIG):
    region, events, _, _ = LoadGenerator(config).build_events()
    return region, events


def bench_engine(region, events, config: LoadConfig = CONFIG) -> dict:
    """Single-process baseline on the exact same event list."""
    from repro.api import make_backend

    backend = make_backend("sharded", LoadGenerator(config).service_spec(region))
    backend.open()
    engine = backend.engine
    start = time.perf_counter()
    engine.process(RequestQueue(events))
    wall = time.perf_counter() - start
    report = engine.report(wall_seconds=wall)
    return {
        "runtime": "engine",
        "tasks": report.tasks_total,
        "assigned": report.tasks_assigned,
        "wall_seconds": wall,
        "throughput_tasks_per_s": report.throughput_tasks_per_s,
    }


def bench_mesh(
    region, events, n_peers: int, config: LoadConfig = CONFIG
) -> dict:
    """Mesh throughput at ``n_peers`` socket-attached worker processes."""
    coordinator = MeshCoordinator(
        region,
        shards=config.shards,
        expected_workers=n_peers,
        grid_nx=config.grid_nx,
        epsilon=config.epsilon,
        budget_capacity=config.budget_capacity,
        batch_size=config.batch_size,
        chunk_size=2048,
        checkpoint_every=0,
        seed=config.seed + 2,
    )
    address = coordinator.listen()
    procs = [
        spawn_local_worker(address, name=f"bench-w{i}") for i in range(n_peers)
    ]
    try:
        with coordinator:
            report = coordinator.run(events)
            answered = coordinator.tasks_answered
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
            proc.join(timeout=5.0)
    return {
        "runtime": "mesh",
        "n_workers": n_peers,
        "tasks": report.tasks_total,
        "answered": answered,
        "assigned": report.tasks_assigned,
        "wall_seconds": report.wall_seconds,
        "throughput_tasks_per_s": report.throughput_tasks_per_s,
    }


def run_benchmark(config: LoadConfig = CONFIG) -> dict:
    region, events = _build_stream(config)
    engine = bench_engine(region, events, config)
    mesh = [bench_mesh(region, events, n, config) for n in WORKER_COUNTS]
    return {
        "benchmark": "mesh_scaling",
        "cpu_count": os.cpu_count(),
        "workload": {
            "n_workers": config.n_workers,
            "n_tasks": config.n_tasks,
            "shards": f"{config.shards[0]}x{config.shards[1]}",
            "grid_nx": config.grid_nx,
        },
        "engine": engine,
        "mesh": mesh,
        "speedup_vs_engine": {
            str(row["n_workers"]): row["throughput_tasks_per_s"]
            / engine["throughput_tasks_per_s"]
            for row in mesh
        },
    }


_SMALL = LoadConfig(
    workload="gaussian",
    n_workers=1200,
    n_tasks=600,
    task_rate=100.0,
    shards=SHARDS,
    grid_nx=8,
    seed=0,
)


def test_mesh_matches_engine_task_accounting():
    """Every task gets an answer, on both runtimes, same totals."""
    region, events = _build_stream(_SMALL)
    engine = bench_engine(region, events, _SMALL)
    mesh = bench_mesh(region, events, 2, _SMALL)
    assert engine["tasks"] == _SMALL.n_tasks
    assert mesh["tasks"] == _SMALL.n_tasks
    assert mesh["answered"] == _SMALL.n_tasks
    assert mesh["assigned"] > 0


if __name__ == "__main__":
    emit_bench(run_benchmark())

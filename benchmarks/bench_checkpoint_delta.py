"""Delta-checkpoint benchmark: O(delta) barriers vs O(state) snapshots.

The v3 snapshot format lets a coordinator checkpoint a shard by
shipping only the cells changed since the previous barrier
(:func:`repro.cluster.snapshot.delta_snapshot`) instead of re-exporting
the whole shard every time. This benchmark quantifies that trade on one
shard driven to several population sizes:

* **bytes** — encoded size of a full base document vs a steady-state
  delta at the same stream position, as the registered-worker count
  grows (the base grows with the population; the delta tracks only the
  per-barrier churn);
* **wall time** — export cost of ``snapshot_shard`` vs
  ``delta_snapshot`` at the same positions;
* **failover restore latency** — ``restore_shard(base)`` vs
  ``restore_chain([base] + deltas)``: what a coordinator actually pays
  to rebuild a shard from its last rebase point after a SIGKILL.

The emitted ``BENCH`` JSON records ``cpu_count`` alongside the results
(export cost is single-threaded; restore happens once per failed shard)
and the headline ``delta_shrink`` ratio — steady-state full/delta bytes
at each population. The acceptance gate for the delta-checkpoint work
is ``delta_shrink >= 5`` at the 10k-worker point.

Run:  PYTHONPATH=src python benchmarks/bench_checkpoint_delta.py
Also collectable by pytest (correctness + shrink gates):
      PYTHONPATH=src python -m pytest benchmarks/bench_checkpoint_delta.py -q
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from repro.cluster.snapshot import (
    compose_chain,
    delta_snapshot,
    restore_chain,
    restore_shard,
    snapshot_shard,
)
from repro.geometry import Box
from repro.service.shard import ShardServer

try:  # package import under pytest, plain import as a script
    from ._common import best_of, emit_bench
except ImportError:
    from _common import best_of, emit_bench

WORKER_COUNTS = (1_000, 10_000, 20_000)
#: Per-barrier churn while at steady state: registrations + tasks that
#: land between two checkpoints (the mesh default is one barrier per
#: few thousand events; 64+32 keeps the delta honest, not degenerate).
CHURN_WORKERS = 64
CHURN_TASKS = 32
#: Steady-state barriers measured per population (the reported delta
#: numbers are means over these, after one warm-up barrier).
N_BARRIERS = 4


def _doc_bytes(doc: dict) -> int:
    return len(json.dumps(doc, separators=(",", ":")).encode("utf-8"))


def _build_shard(n_workers: int, seed: int = 0):
    """One shard at population ``n_workers``, with matcher state built."""
    box = Box.square(200.0)
    shard = ShardServer(
        "s0", box, grid_nx=12, epsilon=0.5, budget_capacity=4.0, seed=seed
    )
    rng = np.random.default_rng(seed + 1)
    batch = 256
    next_id = 0
    while next_id < n_workers:
        ids = list(range(next_id, min(next_id + batch, n_workers)))
        locs = [rng.uniform(0.0, 200.0, 2) for _ in ids]
        shard.register_cohort(ids, locs)
        next_id = ids[-1] + 1
    # force the matcher's slot table so the base carries it
    shard.submit_task(0, rng.uniform(0.0, 200.0, 2))
    return shard, rng, next_id


def _churn(shard, rng, next_id: int, task_id: int) -> tuple[int, int]:
    """One inter-barrier window of traffic: registrations + tasks."""
    ids = list(range(next_id, next_id + CHURN_WORKERS))
    locs = [rng.uniform(0.0, 200.0, 2) for _ in ids]
    shard.register_cohort(ids, locs)
    for _ in range(CHURN_TASKS):
        shard.submit_task(task_id, rng.uniform(0.0, 200.0, 2))
        task_id += 1
    return next_id + CHURN_WORKERS, task_id


def bench_population(n_workers: int, seed: int = 0) -> dict:
    """Full-vs-delta sizes/costs for one shard population."""
    shard, rng, next_id = _build_shard(n_workers, seed)
    task_id = 1_000_000

    # barrier 0: the rebase point every delta chains from
    base = snapshot_shard(shard, checkpoint=0)
    cursor = shard.checkpoint_cursor()
    chain = [base]

    rows = []
    for barrier in range(1, N_BARRIERS + 1):
        next_id, task_id = _churn(shard, rng, next_id, task_id)
        full_s = best_of(lambda: snapshot_shard(shard, checkpoint=barrier))
        delta_s = best_of(
            lambda b=barrier: delta_snapshot(
                shard, None, cursor, checkpoint=b, parent=b - 1
            )
        )
        full = snapshot_shard(shard, checkpoint=barrier)
        delta = delta_snapshot(
            shard, None, cursor, checkpoint=barrier, parent=barrier - 1
        )
        chain.append(delta)
        cursor = shard.checkpoint_cursor()
        rows.append(
            {
                "stream_position": barrier,
                "full_bytes": _doc_bytes(full),
                "delta_bytes": _doc_bytes(delta),
                "full_seconds": full_s,
                "delta_seconds": delta_s,
            }
        )

    # the composed chain must be the shard, bit for bit — a benchmark
    # of a wrong fast path is worse than no benchmark
    composed = compose_chain(chain)
    if json.dumps(composed["state"], sort_keys=True) != json.dumps(
        full["state"], sort_keys=True
    ):
        raise AssertionError("chain compose diverged from the full export")

    restore_full_s = best_of(lambda: restore_shard(full))
    restore_chain_s = best_of(lambda: restore_chain(chain))

    full_bytes = rows[-1]["full_bytes"]
    mean_delta = sum(r["delta_bytes"] for r in rows) / len(rows)
    return {
        "n_workers": n_workers,
        "barriers": rows,
        "chain_len": len(chain),
        "full_bytes": full_bytes,
        "mean_delta_bytes": mean_delta,
        "delta_shrink": full_bytes / mean_delta,
        "restore_full_seconds": restore_full_s,
        "restore_chain_seconds": restore_chain_s,
    }


def run_benchmark() -> dict:
    populations = [bench_population(n) for n in WORKER_COUNTS]
    return {
        "benchmark": "checkpoint_delta",
        "cpu_count": os.cpu_count(),
        "churn": {"workers": CHURN_WORKERS, "tasks": CHURN_TASKS},
        "populations": populations,
        "delta_shrink": {
            str(row["n_workers"]): row["delta_shrink"] for row in populations
        },
    }


def test_delta_is_bit_exact_and_small():
    """The composed chain equals the full export and a steady-state
    delta is dramatically smaller than a base at 10k workers."""
    row = bench_population(10_000)
    assert row["delta_shrink"] >= 5.0, row
    assert row["restore_chain_seconds"] > 0.0


def test_delta_tracks_churn_not_population():
    """Deltas must not grow with the registered population: the same
    churn on a 10x population may not cost 2x the delta bytes."""
    small = bench_population(1_000)
    big = bench_population(10_000)
    assert big["mean_delta_bytes"] < 2.0 * small["mean_delta_bytes"], (
        small,
        big,
    )
    assert big["full_bytes"] > 5.0 * small["full_bytes"]


def main() -> int:
    emit_bench(run_benchmark())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

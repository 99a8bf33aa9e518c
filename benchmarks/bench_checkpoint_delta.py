"""Delta-checkpoint benchmark: O(delta) cuts vs O(state) snapshots.

Delta documents let the mesh coordinator checkpoint a shard by asking
only for the cells changed since the shard's previous checkpoint cut
(:func:`repro.cluster.snapshot.delta_snapshot`) instead of re-exporting
the whole shard at every cut. This benchmark quantifies that trade on
one shard driven to several population sizes:

* **bytes** — the length of a full base document's text vs a
  steady-state delta's at the same stream position
  (:func:`repro.cluster.snapshot.snapshot_text`, the text a mesh worker
  answers a cut with), as the registered-worker count grows (the base
  grows with the population; the delta tracks only the churn between
  two cuts);
* **wall time** — export cost of ``snapshot_shard`` vs
  ``delta_snapshot`` at the same positions, which the worker that takes
  the snapshot pays;
* **failover restore latency** — parsing a full base text
  (:func:`repro.cluster.snapshot.parse_snapshot`) and ``restore_shard``
  vs parsing a base + delta chain's texts and ``restore_chain``: what
  the worker that restores a shard from its last rebase point pays
  after a SIGKILL (the coordinator only forwards the chain's texts).

* **sections** — the bytes of each section of the last base and of the
  mean delta (:func:`section_bytes`: tree, ledger, registrations,
  consumed slots, latency series, distance total, pending buffer, RNG,
  and the rest), printed as a markdown table before the ``BENCH`` line,
  so a format change shows where the bytes went.

The emitted ``BENCH`` JSON records ``cpu_count`` alongside the results
(export cost is single-threaded; restore happens once per failed shard)
and the headline ``delta_shrink`` ratio — steady-state full/delta bytes
at each population. The acceptance gate for the delta-checkpoint work
is ``delta_shrink >= 5`` at the 10k-worker point. (The JSON keeps its
``barriers`` field name for the per-cut rows.)

Run:  PYTHONPATH=src python benchmarks/bench_checkpoint_delta.py
Also collectable by pytest (correctness + shrink gates):
      PYTHONPATH=src python -m pytest benchmarks/bench_checkpoint_delta.py -q
"""

from __future__ import annotations

import json
import os

import numpy as np

from repro.cluster.snapshot import (
    compose_chain,
    delta_snapshot,
    parse_snapshot,
    restore_chain,
    restore_shard,
    snapshot_shard,
    snapshot_text,
)
from repro.geometry import Box
from repro.service.shard import ShardServer

try:  # package import under pytest, plain import as a script
    from ._common import best_of, emit_bench
except ImportError:
    from _common import best_of, emit_bench

WORKER_COUNTS = (1_000, 10_000, 20_000)
#: Churn per cut while at steady state: registrations + tasks that
#: land between two checkpoints (the mesh cuts every few thousand events;
#: 64+32 keeps the delta honest, not degenerate).
CHURN_WORKERS = 64
CHURN_TASKS = 32
#: Steady-state cuts measured per population (the reported delta
#: numbers are means over these).
N_CUTS = 4


def _text_bytes(value) -> int:
    return len(snapshot_text(value).encode("utf-8"))


def section_bytes(doc: dict) -> dict:
    """Text bytes of each section of a base or delta document; ``other``
    (head, counters, keys and punctuation) makes them sum to the whole
    text. A delta carries no tree."""
    body = doc["state"] if doc["kind"] == "base" else doc["delta"]
    server, metrics = body["server"], body["metrics"]
    consumed = server["consumed_slots" if doc["kind"] == "base" else "consumed"]
    sizes = {
        "tree": _text_bytes(body["tree"]) if "tree" in body else 0,
        "ledger": _text_bytes(body["ledger"]),
        "registrations": _text_bytes(server["worker_ids"])
        + _text_bytes(server["leaves"]),
        "consumed slots": _text_bytes(consumed),
        "latency series": _text_bytes(metrics["latencies_s"]),
        "distance total": _text_bytes(metrics["reported_distance_total"]),
        "pending buffer": _text_bytes(doc["pending"]),
        "rng": _text_bytes(body["rng_state"]),
    }
    sizes["other"] = _text_bytes(doc) - sum(sizes.values())
    return sizes


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
    """The traffic between two cuts: registrations + tasks."""
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

    # cut 0: the rebase point every delta chains from
    base = snapshot_shard(shard, checkpoint=0)
    cursor = shard.checkpoint_cursor()
    chain = [base]

    rows, delta_sections = [], []
    for cut in range(1, N_CUTS + 1):
        next_id, task_id = _churn(shard, rng, next_id, task_id)
        full_s = best_of(lambda: snapshot_shard(shard, checkpoint=cut))
        delta_s = best_of(
            lambda b=cut: delta_snapshot(
                shard, None, cursor, checkpoint=b, parent=b - 1
            )
        )
        full = snapshot_shard(shard, checkpoint=cut)
        delta = delta_snapshot(
            shard, None, cursor, checkpoint=cut, parent=cut - 1
        )
        chain.append(delta)
        delta_sections.append(section_bytes(delta))
        cursor = shard.checkpoint_cursor()
        rows.append(
            {
                "stream_position": cut,
                "full_bytes": _text_bytes(full),
                "delta_bytes": _text_bytes(delta),
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

    # a restoring worker parses the texts the coordinator forwards
    full_text = snapshot_text(full)
    chain_texts = [snapshot_text(doc) for doc in chain]
    restore_full_s = best_of(lambda: restore_shard(parse_snapshot(full_text)))
    restore_chain_s = best_of(
        lambda: restore_chain([parse_snapshot(text) for text in chain_texts])
    )

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
        "sections": {
            "base": section_bytes(full),
            "mean_delta": {
                name: sum(s[name] for s in delta_sections) / len(delta_sections)
                for name in delta_sections[0]
            },
        },
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


def print_sections(result: dict) -> None:
    """The section bytes of every population as one markdown table."""
    populations = result["populations"]
    print("### Checkpoint sections: bytes of the last base and the mean delta\n")
    print(
        "| section | "
        + " | ".join(
            f"{row['n_workers']:,} base | {row['n_workers']:,} delta"
            for row in populations
        )
        + " |"
    )
    print("|---|" + "---:|" * (2 * len(populations)))
    for name in populations[0]["sections"]["base"]:
        cells = [
            f"{row['sections']['base'][name]:,} | "
            f"{row['sections']['mean_delta'][name]:,.0f}"
            for row in populations
        ]
        print(f"| {name} | " + " | ".join(cells) + " |")
    print()


def main() -> int:
    result = run_benchmark()
    print_sections(result)
    emit_bench(result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

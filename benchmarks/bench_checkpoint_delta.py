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
* **wall time** — what the worker that takes a snapshot pays per cut:
  the export (``snapshot_shard`` vs ``delta_snapshot`` at the same
  positions) and the text encode of that document
  (:func:`repro.cluster.snapshot.snapshot_text`), timed apart and
  printed per population as a markdown table;
* **failover restore latency** — parsing a full base text
  (:func:`repro.cluster.snapshot.parse_snapshot`) and ``restore_shard``
  vs parsing a base + delta chain's texts and ``restore_chain``: what
  the worker that restores a shard from its last rebase point pays
  after a SIGKILL (the coordinator only forwards the chain's texts).

* **sections** — the bytes of each section of the last base and of the
  mean delta (:func:`section_bytes`: tree, registrations, consumed
  slots, latency series, distance total, pending buffer, RNG, and the
  rest), printed as a markdown table before the ``BENCH`` line, so a
  format change shows where the bytes went.

The emitted ``BENCH`` JSON records ``cpu_count`` alongside the results
(export cost is single-threaded; restore happens once per failed shard)
and the headline ``delta_shrink`` ratio — steady-state full/delta bytes
at each population. The acceptance gate for the delta-checkpoint work
is ``delta_shrink >= 5`` at the 10k-worker point. (The JSON keeps its
``barriers`` field name for the per-cut rows.)

Run:  PYTHONPATH=src python benchmarks/bench_checkpoint_delta.py
Also collectable by pytest (correctness, shrink and format gates):
      PYTHONPATH=src python -m pytest benchmarks/bench_checkpoint_delta.py -q
"""

from __future__ import annotations

import copy
import json
import os

import numpy as np
import pytest

from repro.cluster.snapshot import (
    SnapshotError,
    compose_chain,
    delta_snapshot,
    parse_snapshot,
    restore_chain,
    restore_shard,
    snapshot_shard,
    snapshot_text,
)
from repro.geometry import Box
from repro.service.metrics import unpack_floats
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
        full_encode_s = best_of(lambda: snapshot_text(full))
        delta_encode_s = best_of(lambda: snapshot_text(delta))
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
                "full_encode_seconds": full_encode_s,
                "delta_encode_seconds": delta_encode_s,
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

    def mean(name: str) -> float:
        return sum(r[name] for r in rows) / len(rows)

    full_bytes = rows[-1]["full_bytes"]
    mean_delta = mean("delta_bytes")
    return {
        "n_workers": n_workers,
        "barriers": rows,
        "chain_len": len(chain),
        "full_bytes": full_bytes,
        "mean_delta_bytes": mean_delta,
        "delta_shrink": full_bytes / mean_delta,
        "cut_seconds": {
            "base_export": mean("full_seconds"),
            "base_encode": mean("full_encode_seconds"),
            "delta_export": mean("delta_seconds"),
            "delta_encode": mean("delta_encode_seconds"),
        },
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


def _as_v5(doc: dict, epsilon: float) -> dict:
    """A v6 delta as a v5 runtime wrote it: the ledger's new
    ``[worker, epsilon]`` spends beside the registrations, and every
    float column as a JSON number list."""
    down = copy.deepcopy(doc)
    down["version"] = 5
    body = down["delta"]
    body["ledger"] = [[w, epsilon] for w in body["server"]["worker_ids"]]
    latencies = body["metrics"]["latencies_s"]
    latencies["appended"] = unpack_floats(latencies["appended"]).tolist()
    latencies["set"] = [
        [slot, value]
        for slot, value in zip(
            latencies.pop("set_slots"),
            unpack_floats(latencies.pop("set_values")).tolist(),
        )
    ]
    pending = down["pending"]
    pending["locations"] = unpack_floats(pending["locations"]).reshape(-1, 2).tolist()
    return down


def test_float_columns_are_text_and_v5_is_refused():
    """A v6 delta carries its float columns as base64 float64 strings
    and no ledger; a v5 text (number lists, a ledger suffix) is refused
    with its version code."""
    shard, rng, next_id = _build_shard(1_000)
    base = snapshot_shard(shard, checkpoint=0)
    cursor = shard.checkpoint_cursor()
    _churn(shard, rng, next_id, 1_000_000)
    pending = ([next_id + CHURN_WORKERS], [rng.uniform(0.0, 200.0, 2)])
    delta = delta_snapshot(shard, pending, cursor, checkpoint=1, parent=0)
    latencies = delta["delta"]["metrics"]["latencies_s"]
    for column in (
        latencies["appended"],
        latencies["set_values"],
        delta["pending"]["locations"],
        base["state"]["metrics"]["latencies_s"]["values"],
    ):
        assert isinstance(column, str)
    assert len(unpack_floats(latencies["appended"])) == CHURN_TASKS
    assert len(unpack_floats(delta["pending"]["locations"])) == 2
    assert "ledger" not in delta["delta"] and "ledger" not in base["state"]
    restore_chain([parse_snapshot(snapshot_text(d)) for d in (base, delta)])
    with pytest.raises(SnapshotError) as err:
        parse_snapshot(snapshot_text(_as_v5(delta, shard.epsilon)))
    assert err.value.code == "snapshot-unsupported-version"


def print_costs(result: dict) -> None:
    """What a worker pays per cut, by population: export and text
    encode of the last base and of the mean delta."""
    print("### Checkpoint cost per cut: export + text encode (ms)\n")
    print("| workers | base export | base encode | delta export | delta encode |")
    print("|---:|---:|---:|---:|---:|")
    for row in result["populations"]:
        cost = row["cut_seconds"]
        print(
            f"| {row['n_workers']:,} | {cost['base_export'] * 1e3:.3f} | "
            f"{cost['base_encode'] * 1e3:.3f} | "
            f"{cost['delta_export'] * 1e3:.3f} | "
            f"{cost['delta_encode'] * 1e3:.3f} |"
        )
    print()


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
    print_costs(result)
    print_sections(result)
    emit_bench(result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

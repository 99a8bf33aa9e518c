"""Ablation A7: scalar walk loop vs vectorized batch obfuscation, and the
plain-Python/numpy crossover of the serving kernels.

Registering the worker fleet obfuscates 10^4-10^5 leaves at once. The
random walk is O(D) per leaf but pure Python; the batch sampler draws all
LCA levels in one multinomial and turns the leaf indices with integer
array ops. Same distribution (tested in tests/test_batch_obfuscation.py), large constant-
factor difference.

Serving cohorts are the other extreme: most hold one to four workers, and
numpy's fixed cost per call dominates them. Each serving kernel (the snap,
the Algorithm 3 turn and the ε charge) therefore runs a batch of at most a
cutoff rows in plain Python. The sweep times both forms of each kernel, at
its entry point, on a shard the size of an ``engine-bulk`` shard, and
prints where they cross; the cutoffs are set from it::

    PYTHONPATH=src python benchmarks/bench_ablation_batch.py
"""

import gc
import json
import statistics
import time
from unittest import mock

import numpy as np
import pytest

from repro.experiments import shared_tree
from repro.geometry import Box, grid
from repro.privacy import TreeMechanism, budget, tree_mechanism
from repro.service.shard import ShardServer

N_WORKERS = 20_000


@pytest.fixture(scope="module")
def mechanism_and_points():
    tree = shared_tree(Box.square(200.0))
    mech = TreeMechanism(tree, epsilon=0.6)
    rng = np.random.default_rng(0)
    idx = rng.integers(0, tree.n_points, size=N_WORKERS)
    return mech, idx


@pytest.mark.benchmark(group="ablation-batch")
def test_scalar_walk_loop(benchmark, mechanism_and_points):
    mech, idx = mechanism_and_points
    rng = np.random.default_rng(1)
    subset = [mech.tree.path_of(i) for i in idx[:2000]]  # the slow side

    def run():
        return [mech.obfuscate_walk(path, rng) for path in subset]

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(out) == len(subset)


@pytest.mark.benchmark(group="ablation-batch")
def test_vectorized_batch(benchmark, mechanism_and_points):
    mech, idx = mechanism_and_points
    rng = np.random.default_rng(1)

    def run():
        return mech.obfuscate_points_batch(idx, rng)

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    assert out.shape == idx.shape


# ---------------------------------------------------------------------- #
# the plain-Python/numpy sweep                                             #
# ---------------------------------------------------------------------- #

#: batch sizes swept: every size to 32, then coarser to 256
SWEEP_SIZES = [*range(1, 33), *range(40, 65, 8), *range(80, 257, 16)]

#: timing repeats per kernel, form and size
SWEEP_REPEAT = 7

#: each kernel's cutoff constant: (module, name); patching it to -1 runs
#: every batch on the numpy form, to a huge value on the plain form
CUTOFFS = {
    "snap": (grid, "SNAP_PLAIN_MAX_ROWS"),
    "turn": (tree_mechanism, "TURN_PLAIN_MAX_ROWS"),
    "charge": (budget, "CHARGE_PLAIN_MAX_ROWS"),
}
FORMS = {"plain": 1 << 30, "numpy": -1}

#: an ``engine-bulk`` shard: a 100 x 100 cell, 16 x 16 predefined points,
#: ε = 0.5, and half of its 2,500 workers already registered
SHARD_WORKERS = 1250


def _shard() -> ShardServer:
    shard = ShardServer("s0", Box.square(100.0), grid_nx=16, epsilon=0.5, seed=1)
    locs = np.random.default_rng(2).uniform(0.0, 100.0, (SHARD_WORKERS, 2))
    shard.register_cohort(range(SHARD_WORKERS), locs.tolist())
    return shard


def _calls(kernel: str, shard: ShardServer, n: int, number: int):
    """``number`` argument-free calls of one kernel's entry point on
    ``n``-row batches shaped as the serving path shapes them."""
    rng = np.random.default_rng(n)
    # a cohort's locations arrive as lists of floats, its snapped points
    # as an index array, its principals as fresh worker ids
    locs = rng.uniform(0.0, 100.0, (n, 2)).tolist()
    points = shard.tree.snap_index.snap_many(locs)
    if kernel == "snap":
        snap_many = shard.tree.snap_index.snap_many
        return [lambda: snap_many(locs)] * number
    if kernel == "turn":
        obfuscate = shard.mechanism.obfuscate_points_batch
        return [lambda: obfuscate(points, rng)] * number
    ledger = budget.PrivacyBudgetLedger.from_dict(shard.ledger.to_dict())
    first = SHARD_WORKERS
    cohorts = [range(first + i * n, first + (i + 1) * n) for i in range(number)]
    return [lambda ids=ids: ledger.spend_batch(ids, shard.epsilon) for ids in cohorts]


def time_forms(kernel: str, shard: ShardServer, n: int, repeat: int) -> dict:
    """Per-call times (µs) of each form of one kernel on ``n``-row
    batches, one per repeat. The forms alternate within a repeat, so a
    change in the host's speed reaches both alike, and the collector stays
    off while a batch of calls runs."""
    module, name = CUTOFFS[kernel]
    number = max(20, 4000 // n)
    times = {form: [] for form in FORMS}
    for _ in range(repeat):
        for form, cutoff in FORMS.items():
            with mock.patch.object(module, name, cutoff):
                calls = _calls(kernel, shard, n, number)
                gc.disable()
                try:
                    start = time.perf_counter()
                    for call in calls:
                        call()
                    elapsed = time.perf_counter() - start
                finally:
                    gc.enable()
            times[form].append(elapsed / number * 1e6)
    return times


def crossover(sizes: list[int], ratios: list[float]) -> int:
    """The last swept size before the numpy form first wins (median
    numpy/plain time ratio at most 1); 0 if it wins at size 1, the
    largest size if it never does."""
    last = 0
    for n, ratio in zip(sizes, ratios):
        if ratio <= 1.0:
            break
        last = n
    return last


def sweep() -> dict:
    shard = _shard()
    out = {}
    for kernel, (module, name) in CUTOFFS.items():
        rows = []
        for n in SWEEP_SIZES:
            times = time_forms(kernel, shard, n, SWEEP_REPEAT)
            ratio = statistics.median(
                a / p for p, a in zip(times["plain"], times["numpy"])
            )
            rows.append({**{form: min(t) for form, t in times.items()}, "ratio": ratio})
        out[kernel] = {
            "rows": rows,
            "crossover": crossover(SWEEP_SIZES, [row["ratio"] for row in rows]),
            "cutoff": getattr(module, name),
        }
    return out


def main() -> None:
    result = sweep()
    kernels = list(CUTOFFS)
    print("### Serving kernels: plain Python vs numpy\n")
    print(f"µs per call (best of {SWEEP_REPEAT}) and the median numpy/plain "
          "time ratio over the repeats.\n")
    print("| rows | " + " | ".join(f"{k} plain | {k} numpy | {k} ratio" for k in kernels) + " |")
    print("|---:|" + "---:|" * (3 * len(kernels)))
    for i, n in enumerate(SWEEP_SIZES):
        cells = []
        for k in kernels:
            row = result[k]["rows"][i]
            cells += [f"{row['plain']:.1f}", f"{row['numpy']:.1f}", f"{row['ratio']:.2f}"]
        print(f"| {n} | " + " | ".join(cells) + " |")
    print()
    for k in kernels:
        print(f"- {k}: plain wins through {result[k]['crossover']} rows; "
              f"cutoff in use {result[k]['cutoff']}")
    summary = {k: {"crossover": result[k]["crossover"], "cutoff": result[k]["cutoff"]}
               for k in kernels}
    print("\nBENCH " + json.dumps({"sweep": summary, "shard_workers": SHARD_WORKERS}))


if __name__ == "__main__":
    main()

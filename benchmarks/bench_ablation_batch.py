"""Ablation A7: scalar walk loop vs vectorized batch obfuscation.

Registering the worker fleet obfuscates 10^4-10^5 leaves at once. The
random walk is O(D) per leaf but pure Python; the batch sampler draws all
LCA levels in one multinomial and turns the leaf indices with integer
array ops. Same distribution (tested in tests/test_batch_obfuscation.py), large constant-
factor difference.
"""

import numpy as np
import pytest

from repro.experiments import shared_tree
from repro.geometry import Box
from repro.privacy import TreeMechanism

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

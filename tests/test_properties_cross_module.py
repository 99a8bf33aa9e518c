"""Cross-module property-based tests: invariants that must hold end to end.

These complement the per-module suites with hypothesis-driven checks that
exercise several components at once — the kind of invariants a refactor
is most likely to break silently.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crowdsourcing import Instance, LapGRPipeline, TBFPipeline
from repro.geometry import Box
from repro.hst import build_hst, lca_level, path_to_leaf, tree_distance
from repro.matching import HSTGreedyMatcher, optimal_total_distance
from repro.privacy import TreeMechanism, TreeWeights, verify_tree_geo_i

from .conftest import random_point_set


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(3, 16),
    seed=st.integers(0, 5000),
    eps=st.floats(0.02, 3.0),
)
def test_theorem1_holds_on_arbitrary_trees_and_budgets(n, seed, eps):
    """Theorem 1, fuzzed: any constructed tree, any budget, exact audit."""
    tree = build_hst(random_point_set(n, seed), seed=seed)
    mech = TreeMechanism(tree, epsilon=eps)
    assert verify_tree_geo_i(mech, max_pairs=60, seed=seed).holds()


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(2, 10),
    seed=st.integers(0, 5000),
    eps=st.floats(0.05, 1.0),
)
def test_obfuscation_preserves_leaf_validity_and_support(n, seed, eps):
    """Every sampler output is a well-formed leaf whose probability under
    the closed form is positive."""
    tree = build_hst(random_point_set(n, seed), seed=seed)
    mech = TreeMechanism(tree, epsilon=eps)
    rng = np.random.default_rng(seed)
    for i in range(tree.n_points):
        x = tree.path_of(i)
        for sampler in (mech.obfuscate_walk, mech.obfuscate_level):
            z = sampler(x, rng)
            tree.validate_path(z)
            assert mech.probability(x, z) > 0


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 5000), eps=st.floats(0.05, 2.0))
def test_batch_sampler_level_law(seed, eps):
    """The batch sampler's LCA-level frequencies track the closed form."""
    tree = build_hst(random_point_set(8, seed), seed=seed)
    mech = TreeMechanism(tree, epsilon=eps)
    rng = np.random.default_rng(seed)
    x = tree.path_of(0)
    n = 3000
    out = mech.obfuscate_points_batch(np.zeros(n, dtype=np.intp), rng)
    weights = TreeWeights.from_tree(tree, eps)
    levels = np.array([lca_level(x, tree.path_of_leaf(z)) for z in out])
    for lvl in range(tree.depth + 1):
        assert abs(np.mean(levels == lvl) - weights.level_probs[lvl]) < 0.06


@settings(max_examples=12, deadline=None)
@given(
    n_workers=st.integers(1, 25),
    n_tasks=st.integers(1, 25),
    seed=st.integers(0, 5000),
)
def test_greedy_matching_is_maximal_and_injective(n_workers, n_tasks, seed):
    """On any instance, HST-Greedy matches min(n, m) tasks, never reuses a
    worker, and every assignment is the nearest at its moment."""
    rng = np.random.default_rng(seed)
    depth, branching = 5, 3
    workers = [
        tuple(int(v) for v in rng.integers(0, branching, size=depth))
        for _ in range(n_workers)
    ]
    tasks = [
        tuple(int(v) for v in rng.integers(0, branching, size=depth))
        for _ in range(n_tasks)
    ]
    matcher = HSTGreedyMatcher(
        depth, branching, [path_to_leaf(p, branching) for p in workers]
    )
    remaining = dict(enumerate(workers))
    matched = []
    for task in tasks:
        found = matcher.assign(path_to_leaf(task, branching))
        if found is None:
            assert not remaining
            continue
        worker, level = found
        best = min(tree_distance(p, task) for p in remaining.values())
        got = 0 if level == 0 else 2 ** (level + 2) - 4
        assert got == best
        assert worker in remaining
        del remaining[worker]
        matched.append(worker)
    assert len(matched) == min(n_workers, n_tasks)
    assert len(set(matched)) == len(matched)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 5000))
def test_pipelines_never_undershoot_the_offline_optimum(seed):
    """Any online+obfuscated pipeline's total distance is >= the offline
    optimum on true locations (sanity across the whole stack)."""
    rng = np.random.default_rng(seed)
    region = Box.square(100.0)
    workers = rng.uniform(0, 100, size=(30, 2))
    tasks = rng.uniform(0, 100, size=(15, 2))
    instance = Instance(
        region=region,
        worker_locations=workers,
        task_locations=tasks,
        epsilon=0.5,
    )
    opt = optimal_total_distance(tasks, workers)
    for pipeline in (TBFPipeline(grid_nx=8), LapGRPipeline()):
        outcome = pipeline.run(instance, seed=seed)
        assert outcome.total_distance >= opt - 1e-9


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 5000),
    eps=st.floats(0.05, 1.0),
)
def test_serialized_tree_gives_identical_mechanism(seed, eps):
    """Publish/reload round trip: the mechanism on the reloaded tree has
    the same probabilities as on the original."""
    from repro.hst import hst_from_json, hst_to_json

    tree = build_hst(random_point_set(6, seed), seed=seed)
    clone = hst_from_json(hst_to_json(tree))
    m1 = TreeMechanism(tree, epsilon=eps)
    m2 = TreeMechanism(clone, epsilon=eps)
    for i in range(tree.n_points):
        for j in range(tree.n_points):
            x, z = tree.path_of(i), tree.path_of(j)
            assert m1.probability(x, z) == pytest.approx(m2.probability(x, z))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 5000), capacity=st.integers(1, 4))
def test_capacitated_pool_absorbs_exactly_total_capacity(seed, capacity):
    from repro.matching import CapacitatedHSTGreedyMatcher

    rng = np.random.default_rng(seed)
    depth, branching = 4, 2
    workers = rng.integers(0, branching**depth, size=6).tolist()
    matcher = CapacitatedHSTGreedyMatcher(
        depth, branching, workers, capacities=capacity
    )
    total = 6 * capacity
    assigned = 0
    for _ in range(total + 3):
        task = int(rng.integers(0, branching**depth))
        if matcher.assign(task) is not None:
            assigned += 1
    assert assigned == total

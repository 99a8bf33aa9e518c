"""Ablation A5: HST-Greedy (Alg. 4) vs HST-Chain (Bansal et al., ref [19]).

The paper adopts the greedy matcher; the related-work section cites the
chain-reassignment algorithm as the other classical HST approach. This
ablation runs both on identical obfuscated inputs and compares total true
distance and assignment time.
"""

import numpy as np
import pytest

from repro.experiments import shared_tree
from repro.matching import HSTChainMatcher, HSTGreedyMatcher
from repro.privacy import TreeMechanism
from repro.workloads import SyntheticConfig, gaussian_workload


@pytest.fixture(scope="module")
def obfuscated_instance():
    workload = gaussian_workload(
        SyntheticConfig(n_tasks=400, n_workers=800), seed=0
    )
    tree = shared_tree(workload.region)
    mech = TreeMechanism(tree, epsilon=0.6, seed=1)
    rng = np.random.default_rng(2)
    worker_idx = tree.snap_index.snap_many(workload.worker_locations)
    worker_leaves = mech.obfuscate_points_batch(worker_idx, rng).tolist()
    task_leaves = [
        tree.leaf_of_path(mech.obfuscate(tree.leaf_for_location(loc), rng))
        for loc in workload.task_locations
    ]
    return workload, tree, worker_leaves, task_leaves


def _total_distance(workload, order):
    return float(
        sum(
            np.hypot(*(workload.task_locations[t] - workload.worker_locations[w]))
            for t, w in order
        )
    )


@pytest.mark.benchmark(group="ablation-chain")
def test_hst_greedy_matcher(benchmark, obfuscated_instance):
    workload, tree, worker_leaves, task_leaves = obfuscated_instance

    def run():
        matcher = HSTGreedyMatcher.for_tree(tree, worker_leaves)
        return [
            (t, matcher.assign(leaf)[0]) for t, leaf in enumerate(task_leaves)
        ]

    pairs = benchmark.pedantic(run, rounds=1, iterations=1)
    total = _total_distance(workload, pairs)
    print(f"\nHST-Greedy total true distance: {total:.1f}")
    assert len(pairs) == len(task_leaves)


@pytest.mark.benchmark(group="ablation-chain")
def test_hst_chain_matcher(benchmark, obfuscated_instance):
    workload, tree, worker_leaves, task_leaves = obfuscated_instance

    def run():
        matcher = HSTChainMatcher(tree.depth, tree.branching, worker_leaves)
        return [
            (t, matcher.assign(leaf)[0]) for t, leaf in enumerate(task_leaves)
        ]

    pairs = benchmark.pedantic(run, rounds=1, iterations=1)
    total = _total_distance(workload, pairs)
    print(f"\nHST-Chain total true distance: {total:.1f}")
    assert len(pairs) == len(task_leaves)


def test_quality_within_constant(obfuscated_instance):
    workload, tree, worker_leaves, task_leaves = obfuscated_instance
    greedy = HSTGreedyMatcher.for_tree(tree, worker_leaves)
    chain = HSTChainMatcher(tree.depth, tree.branching, worker_leaves)
    greedy_pairs = [
        (t, greedy.assign(leaf)[0]) for t, leaf in enumerate(task_leaves)
    ]
    chain_pairs = [
        (t, chain.assign(leaf)[0]) for t, leaf in enumerate(task_leaves)
    ]
    g = _total_distance(workload, greedy_pairs)
    c = _total_distance(workload, chain_pairs)
    assert c < 3 * g and g < 3 * c

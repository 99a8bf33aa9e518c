"""Ablation A3: empirical competitive ratio vs the offline optimum.

Theorem 3 guarantees O(1/eps^4 log N log^2 k) in the random-order model.
This ablation measures the realized ratio E[d(M_TBF)] / d(M_OPT) across
privacy budgets, with the Hungarian algorithm providing d(M_OPT), and
contrasts it against the no-privacy HST-Greedy floor.
"""

import numpy as np
import pytest

from repro.crowdsourcing import Instance, TBFPipeline
from repro.experiments import shared_tree
from repro.matching import HSTGreedyMatcher, optimal_total_distance
from repro.workloads import SyntheticConfig, gaussian_workload


@pytest.fixture(scope="module")
def instance_and_opt():
    workload = gaussian_workload(
        SyntheticConfig(n_tasks=150, n_workers=400), seed=3
    )
    opt = optimal_total_distance(
        workload.task_locations, workload.worker_locations
    )
    return workload, opt


@pytest.mark.benchmark(group="ablation-competitive")
@pytest.mark.parametrize("epsilon", [0.2, 0.6, 1.0])
def test_competitive_ratio_vs_epsilon(benchmark, instance_and_opt, epsilon):
    workload, opt = instance_and_opt
    instance = Instance(
        region=workload.region,
        worker_locations=workload.worker_locations,
        task_locations=workload.task_locations,
        epsilon=epsilon,
    )
    tree = shared_tree(workload.region)
    pipeline = TBFPipeline(tree=tree)

    def measure():
        totals = [pipeline.run(instance, seed=s).total_distance for s in range(3)]
        return float(np.mean(totals))

    mean_total = benchmark.pedantic(measure, rounds=1, iterations=1)
    ratio = mean_total / opt

    from repro.privacy import theorem3_competitive_bound

    bound = theorem3_competitive_bound(
        epsilon,
        n_points=tree.n_points,
        matching_size=instance.n_tasks,
        branching=2,
    )
    print(
        f"\neps={epsilon}: empirical competitive ratio = {ratio:.2f} "
        f"(Theorem 3 bound with unit constant: {bound:.1e})"
    )
    assert ratio >= 1.0  # the optimum is a true lower bound
    assert ratio < 100.0  # the realized ratio is practical, per Sec. IV
    assert ratio < bound  # and astronomically below the worst-case bound


def test_privacy_free_floor(instance_and_opt):
    """HST-Greedy without obfuscation: the matching-side distortion alone.
    The privacy mechanism's cost is the gap between this and TBF."""
    workload, opt = instance_and_opt
    tree = shared_tree(workload.region)
    worker_leaves = tree.leaves_for_locations(workload.worker_locations)
    matcher = HSTGreedyMatcher.for_tree(tree, worker_leaves)
    task_leaves = tree.leaves_for_locations(workload.task_locations)
    total = 0.0
    for task_loc, task_leaf in zip(workload.task_locations, task_leaves):
        worker, _ = matcher.assign(task_leaf)
        total += float(
            np.hypot(*(task_loc - workload.worker_locations[worker]))
        )
    floor_ratio = total / opt
    print(f"\nno-privacy HST-Greedy ratio = {floor_ratio:.2f}")
    assert floor_ratio < 40.0

"""Ablation A4: leaf-trie HST-Greedy vs the paper's naive O(n) scan.

The paper states O(D n m) for Algorithm 4 (scan every worker per task);
the bitmask leaf trie answers the same nearest-on-tree query in O(D)
integer operations. This ablation times both implementations on identical
inputs and verifies they return workers at identical tree distances. The
naive scan works on leaf paths (the paper's notation); the trie on their
leaf indices.
"""

import numpy as np
import pytest

from repro.hst.paths import path_to_leaf, tree_distance, tree_distance_for_level
from repro.matching import HSTGreedyMatcher


def _random_paths(n, depth, branching, seed):
    rng = np.random.default_rng(seed)
    return [
        tuple(int(v) for v in rng.integers(0, branching, size=depth))
        for _ in range(n)
    ]


class NaiveTreeGreedy:
    """Literal Algorithm 4: scan all available workers per task."""

    def __init__(self, worker_paths):
        self._available = dict(enumerate(worker_paths))

    def assign(self, task_path):
        if not self._available:
            return None
        worker, path = min(
            self._available.items(), key=lambda kv: tree_distance(kv[1], task_path)
        )
        del self._available[worker]
        return worker, tree_distance(path, task_path)


DEPTH, BRANCHING = 10, 4
N_WORKERS, N_TASKS = 2000, 1000


@pytest.fixture(scope="module")
def workload():
    return (
        _random_paths(N_WORKERS, DEPTH, BRANCHING, seed=0),
        _random_paths(N_TASKS, DEPTH, BRANCHING, seed=1),
    )


def _leaves(paths):
    return [path_to_leaf(p, BRANCHING) for p in paths]


@pytest.mark.benchmark(group="ablation-trie")
def test_trie_matcher_speed(benchmark, workload):
    workers, tasks = workload
    workers, tasks = _leaves(workers), _leaves(tasks)

    def run():
        matcher = HSTGreedyMatcher(DEPTH, BRANCHING, workers)
        return [matcher.assign(t) for t in tasks]

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    assert all(r is not None for r in results)


@pytest.mark.benchmark(group="ablation-trie")
def test_naive_scan_speed(benchmark, workload):
    workers, tasks = workload

    def run():
        matcher = NaiveTreeGreedy(workers)
        return [matcher.assign(t) for t in tasks]

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    assert all(r is not None for r in results)


def test_trie_and_naive_agree_on_distances(workload):
    """Each trie assignment is at the exact distance a literal scan over
    the *same* remaining pool would produce. (Two independently evolving
    matchers may legitimately diverge after a tie, so the comparison keeps
    one shared pool.)"""
    workers, tasks = workload
    trie = HSTGreedyMatcher(DEPTH, BRANCHING, _leaves(workers[:300]))
    remaining = dict(enumerate(workers[:300]))
    for task in tasks[:300]:
        worker, level = trie.assign(path_to_leaf(task, BRANCHING))
        best = min(tree_distance(p, task) for p in remaining.values())
        assert tree_distance_for_level(level) == best
        del remaining[worker]

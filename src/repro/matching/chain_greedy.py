"""HST-Chain: the chain-reassignment matcher of Bansal et al. (ref. [19]).

The paper's related work describes the other classical HST-based online
matching algorithm — Bansal, Buchbinder, Gupta, Naor (Algorithmica 2014),
O(log^2 k)-competitive: a task is "successively assigned to workers
(including those matched ones) until it finds an unmatched worker". Each
hop moves the search to the position of an already-matched worker, letting
chains of short hops reach an unmatched worker that is globally far but
locally connected.

The paper evaluates only HST-Greedy (its Algorithm 4); HST-Chain is
provided as an extension and compared in
``benchmarks/bench_ablation_chain.py``. It operates on the same obfuscated
leaves, so it plugs into the same privacy mechanism unchanged.
"""

from __future__ import annotations

from collections.abc import Sequence

from .leaf_trie import LeafTrie, check_leaves

__all__ = ["HSTChainMatcher"]


class HSTChainMatcher:
    """Online matching by chain reassignment on HST leaves.

    Parameters
    ----------
    depth, branching:
        Shape of the complete HST the leaves live in.
    worker_leaves:
        Obfuscated leaf index per worker; ids are positions.
    max_hops:
        Safety bound on chain length (defaults to a generous multiple of
        the tree depth; chains longer than this fall back to the nearest
        unmatched worker).
    """

    def __init__(
        self,
        depth: int,
        branching: int,
        worker_leaves: Sequence[int],
        max_hops: int = 64,
    ) -> None:
        if max_hops < 1:
            raise ValueError(f"max_hops must be >= 1, got {max_hops}")
        self._leaves = check_leaves(worker_leaves, depth, branching)
        # all workers, matched or not: hop targets
        self._all = LeafTrie(depth, branching)
        # only unmatched workers: chain terminals
        self._free = LeafTrie(depth, branching)
        for worker_id, leaf in enumerate(self._leaves):
            self._all.insert(leaf, worker_id)
            self._free.insert(leaf, worker_id)
        self._max_hops = max_hops

    @property
    def available(self) -> int:
        """Number of unmatched workers."""
        return len(self._free)

    def assign(self, task_leaf: int) -> tuple[int, int] | None:
        """Chain from the task's leaf until an unmatched worker is found.

        Returns ``(worker_id, hops)`` where ``hops`` counts the matched
        workers traversed before the terminal; ``None`` when no unmatched
        workers remain.
        """
        position = self._all.check(task_leaf)
        if len(self._free) == 0:
            return None
        visited: set[int] = set()
        for hop in range(self._max_hops):
            candidate = self._nearest_unvisited(position, visited)
            if candidate is None:
                break
            worker_id = candidate
            if worker_id in self._free:
                self._free.remove(worker_id)
                return worker_id, hop
            # hop to the matched worker's reported position and continue
            visited.add(worker_id)
            position = self._leaves[worker_id]
        # chain exhausted: fall back to the nearest unmatched worker
        found = self._free.pop_nearest(position)
        assert found is not None  # len(self._free) > 0 checked above
        return found[0], self._max_hops

    def _nearest_unvisited(self, position: int, visited: set[int]) -> int | None:
        for worker_id, _level in self._all.iter_candidates(position):
            if worker_id not in visited:
                return worker_id
        return None

"""The paper's ε-Geo-Indistinguishable mechanism on a complete HST.

Three interchangeable samplers produce the *same* distribution (Theorem 2):

* :meth:`TreeMechanism.obfuscate_enumerate` — the reference Algorithm 2:
  enumerate all ``c**D`` leaves of the complete tree, weight each by its
  LCA level with the true leaf, sample once. Exponential; only allowed on
  small trees and used as ground truth in tests.
* :meth:`TreeMechanism.obfuscate_level` — a two-stage direct sampler:
  draw the LCA level from the per-level probabilities, then a uniform leaf
  of the sibling set ``L_i(x)``. ``O(D)``.
* :meth:`TreeMechanism.obfuscate_walk` — the paper's Algorithm 3 random
  walk: climb from the true leaf, at level ``i`` continue upward with
  probability ``pu_i``, on turning descend through a uniformly chosen
  non-returning child, then uniform children to a leaf. ``O(D)``.

The mechanism operates purely on leaf paths, so fake leaves (added to make
the tree complete) are legal outputs, exactly as in the paper's Example 3.

Those three take and return tuple paths, the paper's notation. The serving
path and the pipelines' bulk registration use the batch sampler
(:meth:`TreeMechanism.obfuscate_points_batch`) instead: the level sampler
over *leaf indices* (a path read as base-``c`` digits), which turns a leaf
at level ``l`` by integer arithmetic and returns int64 leaf indices, the
one form a report takes from here to the matcher and the snapshot. The
batch sampler has two forms that make the same draws and return the same
leaves: plain Python for a batch of at most :data:`TURN_PLAIN_MAX_ROWS`
points (a task's batch of one and almost every serving cohort), where
numpy's fixed cost per call would dominate, and numpy for larger batches
(warm-start cohorts and the pipelines' bulk registration).
"""

from __future__ import annotations

import operator
from bisect import bisect_right

import numpy as np

from ..hst.paths import Path, lca_level
from ..hst.tree import HST
from ..utils import ensure_rng
from .weights import TreeWeights

__all__ = ["TreeMechanism", "ENUMERATION_LEAF_LIMIT", "TURN_PLAIN_MAX_ROWS"]

#: Refuse to run Algorithm 2 on complete trees with more leaves than this.
ENUMERATION_LEAF_LIMIT = 2_000_000

#: :meth:`TreeMechanism.obfuscate_points_batch` turns a batch of at most
#: this many points in plain Python and a larger one with numpy. Set from
#: the crossover ``benchmarks/bench_ablation_batch.py`` prints (the
#: plain form won through 28-30 rows in five sweeps on 2 CPUs).
TURN_PLAIN_MAX_ROWS = 28

_INTP = np.dtype(np.intp)


class TreeMechanism:
    """ε-Geo-I obfuscation of HST leaves (paper Sec. III-C/D).

    Parameters
    ----------
    tree:
        The published complete HST.
    epsilon:
        Privacy budget, applied to tree-unit distances (Theorem 1 bounds
        ``M(x1)(z) <= exp(eps * dT(x1, x2)) * M(x2)(z)``).
    method:
        Default sampler for :meth:`obfuscate`: ``"walk"`` (Alg. 3,
        default), ``"level"`` (direct two-stage) or ``"enumerate"``
        (Alg. 2, small trees only).
    seed:
        RNG used when a call does not pass its own.
    """

    _METHODS = ("walk", "level", "enumerate")

    def __init__(
        self,
        tree: HST,
        epsilon: float,
        method: str = "walk",
        seed: int | np.random.Generator | None = None,
    ) -> None:
        if method not in self._METHODS:
            raise ValueError(f"method must be one of {self._METHODS}, got {method!r}")
        self.tree = tree
        self.weights = TreeWeights.from_tree(tree, epsilon)
        self.method = method
        self._rng = ensure_rng(seed)
        # integer turn tables: c**l by level, and the base-c weight of
        # the digit at each depth
        self._pow = tree.branching ** np.arange(tree.depth + 1, dtype=np.int64)
        self._digit_weights = self._pow[tree.depth - 1 :: -1].copy()
        self._level_cdf = self.weights.level_cdf.tolist()
        self._leaf_list = tree.leaf_index.tolist()

    @property
    def epsilon(self) -> float:
        return self.weights.epsilon

    # ------------------------------------------------------------------ #
    # exact probabilities                                                  #
    # ------------------------------------------------------------------ #

    def probability(self, x: Path, z: Path) -> float:
        """``M(x)(z)``: probability of obfuscating leaf ``x`` to leaf ``z``."""
        x = self.tree.validate_path(x)
        z = self.tree.validate_path(z)
        return self.weights.leaf_probability(lca_level(x, z))

    def distribution(self, x: Path) -> dict[Path, float]:
        """The full output distribution of Algorithm 2 for true leaf ``x``.

        Enumerates every leaf of the complete tree; guarded by
        :data:`ENUMERATION_LEAF_LIMIT`.
        """
        from ..hst.paths import enumerate_leaves

        self._check_enumerable()
        x = self.tree.validate_path(x)
        return {
            z: self.weights.leaf_probability(lca_level(x, z))
            for z in enumerate_leaves(self.tree.depth, self.tree.branching)
        }

    def expected_tree_distance(self, u: Path, v: Path) -> float:
        """Exact ``E[dT(u', v)]`` where ``u'`` is the obfuscation of ``u``.

        Unlike :meth:`distribution` this runs in ``O(D^2)`` by grouping the
        leaves by (LCA level with ``u``, LCA level with ``v``): used to
        check the Lemma 1/2 expectation bounds on full-size trees.
        """
        from ..hst.paths import tree_distance_for_level

        u = self.tree.validate_path(u)
        v = self.tree.validate_path(v)
        depth, c = self.tree.depth, self.tree.branching
        w = self.weights
        l_uv = lca_level(u, v)
        total = 0.0
        # Leaves z with lvl(u, z) = i > l_uv lie outside the (u, v) subtree,
        # so lvl(v, z) = i as well. Leaves with i < l_uv stay inside u's
        # side, so lvl(v, z) = l_uv. Leaves with i = l_uv split between v's
        # own subtree (distance stratified by lvl(v, z) = j < l_uv) and the
        # other c-2 sibling branches (distance = dT(level l_uv)).
        for i in range(depth + 1):
            p_leaf = w.leaf_probability(i)
            if i != l_uv:
                count = w.level_counts[i]
                dist_level = i if i > l_uv else l_uv
                total += p_leaf * count * tree_distance_for_level(dist_level)
                continue
            if l_uv == 0:
                # z == u == v: zero distance contribution.
                continue
            # i == l_uv > 0: the sibling set of u at this level.
            # v's own branch contains c**(l_uv - 1) of those leaves,
            # stratified by their LCA level with v.
            for j in range(l_uv):
                if j == 0:
                    inside = 1.0
                else:
                    inside = (c - 1) * float(c) ** (j - 1)
                total += p_leaf * inside * tree_distance_for_level(j)
            # the remaining (c-2) * c**(l_uv-1) leaves sit in sibling
            # branches of both u and v at level l_uv.
            others = (c - 2) * float(c) ** (l_uv - 1)
            if others > 0:
                total += p_leaf * others * tree_distance_for_level(l_uv)
        return total

    # ------------------------------------------------------------------ #
    # samplers                                                            #
    # ------------------------------------------------------------------ #

    def obfuscate(self, x: Path, rng=None) -> Path:
        """Obfuscate leaf ``x`` with the configured default sampler."""
        if self.method == "walk":
            return self.obfuscate_walk(x, rng)
        if self.method == "level":
            return self.obfuscate_level(x, rng)
        return self.obfuscate_enumerate(x, rng)

    def obfuscate_point(self, point_index: int, rng=None) -> Path:
        """Obfuscate the real leaf of predefined point ``point_index``."""
        return self.obfuscate(self.tree.path_of(point_index), rng)

    def obfuscate_many(self, xs, rng=None) -> list[Path]:
        """Obfuscate a sequence of leaf paths independently."""
        rng = self._resolve_rng(rng)
        return [self.obfuscate(x, rng) for x in xs]

    def obfuscate_points_batch(self, point_indices, rng=None) -> np.ndarray:
        """Vectorized obfuscation of real leaves by predefined-point index.

        The registration *and* serving entry point: looks up each point's
        leaf in :attr:`tree.leaf_index <repro.hst.tree.HST.leaf_index>`
        and turns it in the batch kernel, returning int64 leaf indices.
        A batch of at most :data:`TURN_PLAIN_MAX_ROWS` points — every
        task's batch of one, and almost every serving cohort — runs the
        kernel in plain Python (:meth:`_turn_plain`); a larger one runs
        the numpy form (:meth:`_obfuscate_leaves`). Both make the same
        draws and return the same leaves.
        """
        # _resolve_rng inline: a task pays this call's fixed cost per report
        rng = self._rng if rng is None else ensure_rng(rng)
        leaf_list = self._leaf_list  # one leaf per predefined point
        n = len(point_indices)
        if n > TURN_PLAIN_MAX_ROWS:
            idx = self._index_column(point_indices)
            if idx.size and (idx.min() < 0 or idx.max() >= len(leaf_list)):
                raise IndexError("point index out of range")
            return self._obfuscate_leaves(self.tree.leaf_index[idx], rng)
        if n == 1:
            point = operator.index(point_indices[0])
            if not 0 <= point < len(leaf_list):
                raise IndexError("point index out of range")
            leaves = [leaf_list[point]]
        else:
            points = self._index_column(point_indices).tolist()
            if points and (min(points) < 0 or max(points) >= len(leaf_list)):
                raise IndexError("point index out of range")
            leaves = [leaf_list[point] for point in points]
        return np.array(self._turn_plain(leaves, rng), dtype=np.int64)

    @staticmethod
    def _index_column(point_indices) -> np.ndarray:
        """A batch of two or more indices as a one-dimensional intp array.

        Indices must be integers (or bools), as ``operator.index`` wants
        for a batch of one: a float index is a ``TypeError``, never
        truncated. An empty batch is valid whatever its dtype.
        """
        idx = np.asarray(point_indices)
        if idx.dtype is not _INTP:  # the serving path's snaps already are
            if idx.size and idx.dtype.kind not in "biu":
                raise TypeError(
                    f"point indices must be integers, got {idx.dtype} values"
                )
            idx = idx.astype(np.intp)
        if idx.ndim != 1:
            raise ValueError(f"expected a 1-d index array, got shape {idx.shape}")
        return idx

    def _obfuscate_leaves(self, leaves: np.ndarray, rng) -> np.ndarray:
        """The batch sampler proper, on validated int64 leaf indices.

        A turn at level ``l`` keeps the leaf's digits above the turning
        node (``leaf // c**l``), replaces the turning digit by a uniform
        non-returning child and draws the ``l - 1`` digits below it
        uniformly: ``(leaf // c**l) * c**l + child * c**(l-1) + descent``.
        Draws: one ``rng.random(n)`` for the levels, then one
        ``rng.random((k, depth + 1))`` block for the ``k`` leaves that
        move.
        """
        n = len(leaves)
        out = leaves.copy()
        depth, c = self.tree.depth, self.tree.branching
        # level draw via the precomputed cdf: bit-identical to
        # rng.choice(depth + 1, size=n, p=level_probs) on the same stream,
        # minus choice's per-call p validation
        levels = np.searchsorted(
            self.weights.level_cdf, rng.random(n), side="right"
        )
        moved = levels > 0
        if not moved.any():
            return out
        idx = moved.nonzero()[0]
        level = levels[idx]
        # one uniform block covers the turning child and the whole descent:
        # floor-scaling doubles is uniform to 2**-53 per draw and an order
        # of magnitude cheaper than per-call bounded-integer sampling (the
        # minimum guards the measure-zero round-up at the top of the range;
        # the scaled draws are never negative); column 1 + j is the digit
        # at depth j
        u = rng.random((len(idx), depth + 1))
        below = self._pow[level - 1]
        above = below * c
        x = out[idx]
        # non-returning child at the turning node: uniform over the other
        # c - 1 children (shift past the avoided digit)
        avoid = (x // below) % c
        child = (u[:, 0] * (c - 1)).astype(np.int64)
        np.minimum(child, c - 2, out=child)
        child += child >= avoid
        # uniform descent below the turn: every digit drawn, the ones at or
        # above the turn dropped by the modulus
        digits = (u[:, 1:] * c).astype(np.int64)
        np.minimum(digits, c - 1, out=digits)
        descent = (digits @ self._digit_weights) % below
        out[idx] = (x // above) * above + child * below + descent
        return out

    def _turn_plain(self, leaves: list[int], rng) -> list[int]:
        """:meth:`_obfuscate_leaves` in plain Python, for small batches;
        turns ``leaves`` in place and returns it.

        Bit for bit the array form: the level draws are ``rng.random(n)``
        (for one leaf, ``rng.random()``, the same double), ``bisect_right``
        on the cdf list picks the index ``np.searchsorted(..., "right")``
        does, the ``k`` moving leaves then share one
        ``rng.random(k * (depth + 1))`` block (the values of
        ``rng.random((k, depth + 1))``, row by row), and each turn
        (:func:`_turn`) is the same integer arithmetic on Python ints,
        without numpy's fixed cost per call.
        """
        cdf, tree = self._level_cdf, self.tree
        if len(leaves) == 1:
            # a task's report: one draw, one turn, no list work
            level = bisect_right(cdf, rng.random())
            if level:
                width = tree.depth + 1
                u = rng.random(width).tolist()
                leaves[0] = _turn(leaves[0], level, u, 0, width, tree.branching)
            return leaves
        levels = [bisect_right(cdf, u) for u in rng.random(len(leaves)).tolist()]
        turned = [i for i, level in enumerate(levels) if level]
        if not turned:
            return leaves
        width, c = tree.depth + 1, tree.branching
        u = rng.random(len(turned) * width).tolist()
        for row, i in enumerate(turned):
            leaves[i] = _turn(leaves[i], levels[i], u, row * width, width, c)
        return leaves

    def obfuscate_walk(self, x: Path, rng=None) -> Path:
        """Paper Algorithm 3: the O(D) random-walk sampler."""
        x = self.tree.validate_path(x)
        rng = self._resolve_rng(rng)
        depth, c = self.tree.depth, self.tree.branching
        pu = self.weights.pu

        # Walk upward from the leaf; at level i continue with prob pu[i].
        level = 0
        while rng.random() < pu[level]:
            level += 1
        if level == 0:
            # Turned around at the true leaf itself: report x unchanged.
            return x
        return self._descend(x, level, rng, depth, c)

    def obfuscate_level(self, x: Path, rng=None) -> Path:
        """Direct sampler: draw the LCA level, then a uniform sibling leaf."""
        x = self.tree.validate_path(x)
        rng = self._resolve_rng(rng)
        depth, c = self.tree.depth, self.tree.branching
        level = int(rng.choice(depth + 1, p=self.weights.level_probs))
        if level == 0:
            return x
        return self._descend(x, level, rng, depth, c)

    def obfuscate_enumerate(self, x: Path, rng=None) -> Path:
        """Paper Algorithm 2: enumerate all leaves and sample once.

        Exponential in ``D``; only allowed on small trees (tests, worked
        examples). Produces the same distribution as the other samplers.
        """
        self._check_enumerable()
        rng = self._resolve_rng(rng)
        dist = self.distribution(x)
        leaves = list(dist.keys())
        probs = np.fromiter(dist.values(), dtype=np.float64, count=len(leaves))
        idx = int(rng.choice(len(leaves), p=probs / probs.sum()))
        return leaves[idx]

    # ------------------------------------------------------------------ #
    # internals                                                           #
    # ------------------------------------------------------------------ #

    @staticmethod
    def _descend(x: Path, level: int, rng, depth: int, c: int) -> Path:
        """Turn downward at ``level``: pick a uniform non-returning child,
        then uniform children to a leaf — a uniform member of ``L_level(x)``.
        """
        split = depth - level
        # child of the turning node that leads back toward x
        avoid = x[split]
        child = int(rng.integers(c - 1))
        if child >= avoid:
            child += 1
        out = list(x[:split])
        out.append(child)
        if level > 1:
            out.extend(int(v) for v in rng.integers(0, c, size=level - 1))
        return tuple(out)

    def _resolve_rng(self, rng) -> np.random.Generator:
        return self._rng if rng is None else ensure_rng(rng)

    def _check_enumerable(self) -> None:
        if self.tree.num_leaves > ENUMERATION_LEAF_LIMIT:
            raise ValueError(
                f"complete tree has {self.tree.num_leaves} leaves; "
                f"enumeration (Alg. 2) is limited to "
                f"{ENUMERATION_LEAF_LIMIT} — use the 'walk' sampler"
            )


def _turn(leaf: int, level: int, u: list[float], start: int, width: int, c: int) -> int:
    """Turn one leaf at ``level`` with its row ``u[start:start + width]``
    of the uniform block: the non-returning child from the row's first
    draw, then the ``level - 1`` digits below the turn from its last
    draws, read as base-``c`` from the top (one row of
    :meth:`TreeMechanism._obfuscate_leaves`, on Python ints)."""
    below = c ** (level - 1)
    child = min(int(u[start] * (c - 1)), c - 2)
    if child >= (leaf // below) % c:
        child += 1
    end = start + width
    descent = 0
    for j in range(end - level + 1, end):
        descent = descent * c + min(int(u[j] * c), c - 1)
    above = below * c
    return (leaf // above) * above + child * below + descent

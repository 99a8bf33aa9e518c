"""Weight algebra of the tree mechanism (paper Eqs. 3, 4 and 7).

For a complete ``c``-ary HST of depth ``D`` and privacy budget ``epsilon``,
a leaf ``z`` whose LCA with the true leaf ``x`` sits at level ``i`` is
reported with probability ``wt_i / WT`` where::

    wt_0 = 1
    wt_i = exp(epsilon * (4 - 2**(i+2)))          # = exp(-eps * dT(level i))
    WT   = wt_0 + sum_{i=1}^{D} c**(i-1) * (c-1) * wt_i

The random-walk sampler additionally needs the suffix weights ``tw_k``
(Eq. 7) — the total weight of leaves whose LCA with ``x`` is at level >= k —
and the upward-step probabilities ``pu_i = tw_{i+1} / tw_i``.

All of these depend only on ``(epsilon, D, c)``, never on the specific leaf,
because the complete tree looks identical from every leaf. They are
precomputed once per mechanism instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..hst.paths import sibling_set_size, tree_distance_for_level

__all__ = ["TreeWeights"]


@dataclass(frozen=True)
class TreeWeights:
    """Precomputed per-level weights of the tree mechanism.

    Attributes
    ----------
    epsilon:
        Privacy budget applied to tree-unit distances.
    depth, branching:
        ``D`` and ``c`` of the complete HST.
    wt:
        ``(D+1,)`` per-leaf weight at each LCA level (Eq. 3 numerators).
    level_counts:
        ``(D+1,)`` sibling-set sizes ``|L_i(x)|`` as float64.
    total_weight:
        ``WT`` (Eq. 4).
    level_probs:
        ``(D+1,)`` probability that the obfuscated leaf's LCA with the true
        leaf is at each level; sums to 1.
    tw:
        ``(D+2,)`` suffix weights (Eq. 7), with ``tw[D+1] = 0``.
    pu:
        ``(D+1,)`` probability of continuing the walk upward at each level
        (``pu[D] = 0``: the walk must turn at the root).
    """

    epsilon: float
    depth: int
    branching: int
    wt: np.ndarray
    level_counts: np.ndarray
    total_weight: float
    level_probs: np.ndarray
    tw: np.ndarray
    pu: np.ndarray

    @classmethod
    def compute(cls, epsilon: float, depth: int, branching: int) -> "TreeWeights":
        """Evaluate Eqs. 3, 4 and 7 for ``(epsilon, depth, branching)``."""
        if not 0 < epsilon < math.inf:  # NaN fails too
            raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        if branching < 1:
            raise ValueError(f"branching must be >= 1, got {branching}")

        levels = np.arange(depth + 1)
        distances = np.array(
            [tree_distance_for_level(int(i)) for i in levels], dtype=np.float64
        )
        # wt_i = exp(eps * (4 - 2**(i+2))) = exp(-eps * dT(i)); wt_0 = 1.
        # Deep levels underflow to 0.0, which is the correct limit.
        with np.errstate(under="ignore"):
            wt = np.exp(-epsilon * distances)
        counts = np.array(
            [sibling_set_size(int(i), branching) for i in levels],
            dtype=np.float64,
        )
        with np.errstate(under="ignore"):
            level_weight = counts * wt
        total = float(level_weight.sum())
        level_probs = level_weight / total

        # tw[k] = sum_{i >= k} |L_i| * wt_i, with tw[D+1] = 0 (Eq. 7).
        tw = np.zeros(depth + 2, dtype=np.float64)
        tw[: depth + 1] = level_weight[::-1].cumsum()[::-1]

        # pu[i] = tw[i+1] / tw[i]; define 0/0 := 0 (once the remaining
        # suffix weight underflows to zero the walk can never be there).
        with np.errstate(invalid="ignore", divide="ignore"):
            pu = np.where(tw[:-1] > 0.0, tw[1:] / tw[:-1], 0.0)

        return cls(
            epsilon=float(epsilon),
            depth=depth,
            branching=branching,
            wt=wt,
            level_counts=counts,
            total_weight=total,
            level_probs=level_probs,
            tw=tw,
            pu=pu,
        )

    @classmethod
    def from_tree(cls, tree, epsilon: float) -> "TreeWeights":
        """Convenience constructor reading ``(D, c)`` from an :class:`HST`."""
        return cls.compute(epsilon, tree.depth, tree.branching)

    # ------------------------------------------------------------------ #
    # derived quantities                                                  #
    # ------------------------------------------------------------------ #

    def leaf_probability(self, level: int) -> float:
        """``M(x)(z)`` for any single leaf ``z`` with ``lvl(x, z) = level``."""
        if not 0 <= level <= self.depth:
            raise IndexError(f"level {level} outside [0, {self.depth}]")
        return float(self.wt[level] / self.total_weight)

    @cached_property
    def stay_probability(self) -> float:
        """Probability the mechanism reports the true leaf unchanged."""
        return self.leaf_probability(0)

    @cached_property
    def level_cdf(self) -> np.ndarray:
        """``(D+1,)`` cumulative level distribution, normalised exactly as
        ``Generator.choice(p=level_probs)`` normalises it internally — so
        ``searchsorted(level_cdf, rng.random(n), side="right")`` draws the
        same levels from the same stream, without choice's per-call
        validation overhead. This is the batch sampler's hot lookup table.
        """
        cdf = self.level_probs.cumsum()
        cdf /= cdf[-1]
        return cdf

    @cached_property
    def expected_displacement(self) -> float:
        """Expected tree distance between the true and obfuscated leaf."""
        distances = np.array(
            [tree_distance_for_level(i) for i in range(self.depth + 1)],
            dtype=np.float64,
        )
        return float((self.level_probs * distances).sum())

    def __post_init__(self) -> None:
        for name in ("wt", "level_counts", "level_probs"):
            arr = getattr(self, name)
            if arr.shape != (self.depth + 1,):
                raise ValueError(f"{name} must have shape ({self.depth + 1},)")
        if self.tw.shape != (self.depth + 2,):
            raise ValueError("tw must have shape (depth + 2,)")
        if self.pu.shape != (self.depth + 1,):
            raise ValueError("pu must have shape (depth + 1,)")

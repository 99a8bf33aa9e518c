"""Reimplementation of the ``Prob`` baseline (To et al., ICDE 2018).

The paper's matching-size case study (Sec. IV-C) compares TBF against
``Prob``: planar-Laplace obfuscation plus a *probability-based* assignment.
To et al.'s server sees only noisy locations, so for each candidate worker
it estimates the probability that the **true** task-worker distance is
within the worker's reachable radius, and assigns the task to the worker
maximizing that probability (subject to a minimum-confidence threshold).

The original is closed source; we reproduce the published idea faithfully:

* Both endpoints carry i.i.d. planar Laplace noise, so the true distance is
  ``|| delta - S ||`` where ``delta`` is the observed noisy displacement
  and ``S`` is the *difference of two planar Laplace noises* — an isotropic
  2-D random variable independent of the locations.
* We draw one reusable Monte-Carlo pool of ``S`` samples per mechanism
  (the pool depends only on ``epsilon``) and estimate
  ``P(true distance <= R)`` for an observed displacement by counting pool
  samples landing in the radius-``R`` disk. By isotropy only the observed
  distance matters, so the count reduces to a vectorized quadratic test.
* Candidate workers are pre-filtered with a KD-tree ball query of radius
  ``R_max + q``-quantile of ``||S||``, outside which the probability is
  negligible; this is an efficiency device only.

Assignment semantics follow the case study: the chosen worker serves the
task iff the true distance is actually within its radius (checked by the
simulator, not here); see :mod:`repro.crowdsourcing.pipelines`.
"""

from __future__ import annotations

import numpy as np

from ..geometry.points import as_point, as_points
from ..privacy.laplace import PlanarLaplaceMechanism
from ..utils import ensure_rng

__all__ = ["NoiseDifferencePool", "ProbMatcher"]


class NoiseDifferencePool:
    """Monte-Carlo pool of planar-Laplace noise *differences*.

    ``S = N1 - N2`` with ``N1, N2`` i.i.d. planar Laplace(eps). The pool is
    drawn once and reused for every probability estimate, making each
    estimate O(pool size) with two cached 1-D arrays:
    ``sx`` (x-components) and ``norm2`` (squared magnitudes).
    """

    def __init__(
        self,
        epsilon: float,
        n_samples: int = 2048,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        if n_samples < 1:
            raise ValueError(f"need at least one sample, got {n_samples}")
        rng = ensure_rng(seed)
        mech = PlanarLaplaceMechanism(epsilon)
        origin = np.zeros((n_samples, 2))
        diff = mech.obfuscate_many(origin, rng) - mech.obfuscate_many(origin, rng)
        self.epsilon = float(epsilon)
        self.n_samples = n_samples
        self._sx = diff[:, 0].copy()
        self._norm2 = (diff**2).sum(axis=1)

    def reach_probability(self, observed_distance, radius) -> np.ndarray:
        """``P(||delta - S|| <= radius)`` for ``||delta|| = observed_distance``.

        By isotropy, place ``delta`` on the x-axis; then
        ``||delta - S||^2 = d^2 - 2 d S_x + ||S||^2``. Broadcasts over
        arrays of distances/radii of equal shape.
        """
        d = np.atleast_1d(np.asarray(observed_distance, dtype=np.float64))
        r = np.broadcast_to(
            np.asarray(radius, dtype=np.float64), d.shape
        ).astype(np.float64)
        if np.any(d < 0) or np.any(r < 0):
            raise ValueError("distances and radii must be non-negative")
        true_d2 = (
            d[:, None] ** 2 - 2.0 * d[:, None] * self._sx[None, :] + self._norm2
        )
        return (true_d2 <= r[:, None] ** 2).mean(axis=1)

    def magnitude_quantile(self, q: float) -> float:
        """``q``-quantile of ``||S||`` (for candidate pre-filtering)."""
        return float(np.quantile(np.sqrt(self._norm2), q))


class ProbMatcher:
    """Online probability-based assignment over noisy locations.

    Parameters
    ----------
    worker_locations:
        ``(n, 2)`` *reported* (noisy) worker locations.
    radii:
        Per-worker reachable distance (true-distance constraint).
    pool:
        Shared :class:`NoiseDifferencePool` for the session's epsilon.
    min_probability:
        Assignment threshold: tasks with no worker reaching this estimated
        success probability stay unassigned.
    candidate_quantile:
        Noise-magnitude quantile used for the KD-tree candidate radius.
    """

    def __init__(
        self,
        worker_locations,
        radii,
        pool: NoiseDifferencePool,
        min_probability: float = 0.05,
        candidate_quantile: float = 0.95,
    ) -> None:
        self._locations = as_points(worker_locations)
        self._radii = np.asarray(radii, dtype=np.float64)
        if self._radii.shape != (len(self._locations),):
            raise ValueError("need exactly one radius per worker")
        if np.any(self._radii < 0):
            raise ValueError("radii must be non-negative")
        if not 0.0 <= min_probability <= 1.0:
            raise ValueError("min_probability must lie in [0, 1]")
        self._pool = pool
        self._min_probability = float(min_probability)
        self._available = np.ones(len(self._locations), dtype=bool)
        self._n_available = len(self._locations)
        self._tree = None
        if len(self._locations):
            from scipy.spatial import cKDTree

            self._tree = cKDTree(self._locations)
        self._candidate_radius = (
            float(self._radii.max(initial=0.0))
            + pool.magnitude_quantile(candidate_quantile)
        )

    @property
    def available(self) -> int:
        """Number of workers not yet consumed."""
        return self._n_available

    def assign(self, task_location) -> tuple[int, float] | None:
        """Pick the available worker with the highest estimated success
        probability for the reported task location.

        Returns ``(worker_id, estimated_probability)`` and consumes the
        worker; ``None`` when no candidate clears ``min_probability``.
        """
        if self._n_available == 0 or self._tree is None:
            return None
        loc = as_point(task_location)
        candidates = [
            i
            for i in self._tree.query_ball_point(loc, self._candidate_radius)
            if self._available[i]
        ]
        if not candidates:
            return None
        cand = np.asarray(candidates, dtype=np.intp)
        diffs = self._locations[cand] - loc
        dists = np.hypot(diffs[:, 0], diffs[:, 1])
        probs = self._pool.reach_probability(dists, self._radii[cand])
        best = int(np.argmax(probs))
        if probs[best] < self._min_probability:
            return None
        worker = int(cand[best])
        self._available[worker] = False
        self._n_available -= 1
        return worker, float(probs[best])

    def release(self, worker_id: int) -> None:
        """Return a previously consumed worker to the pool."""
        if self._available[worker_id]:
            raise ValueError(f"worker {worker_id} is not consumed")
        self._available[worker_id] = True
        self._n_available += 1

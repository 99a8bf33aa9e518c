"""The planar (polar) Laplace mechanism of Andrés et al. (CCS 2013).

This is the baseline privacy mechanism the paper compares against (Lap-GR,
Lap-HG, Prob all use it). It achieves ε-Geo-Indistinguishability in the
Euclidean plane by adding noise with density::

    p(z | x) = eps**2 / (2*pi) * exp(-eps * d(x, z))

Sampling uses the polar decomposition: the angle is uniform and the radius
follows CDF ``C(r) = 1 - (1 + eps*r) * exp(-eps*r)``, inverted in closed
form with the Lambert-W function (branch -1)::

    r = -(1/eps) * (W_{-1}((p - 1) / e) + 1),   p ~ U(0, 1)

An optional service region clamps the obfuscated point back into bounds — a
post-processing step that cannot weaken Geo-I.
"""

from __future__ import annotations

import numpy as np

from ..geometry.box import Box
from ..geometry.points import as_point, as_points, euclidean
from ..utils import ensure_rng

__all__ = ["PlanarLaplaceMechanism"]


class PlanarLaplaceMechanism:
    """ε-Geo-I location obfuscation in the Euclidean plane.

    Parameters
    ----------
    epsilon:
        Privacy budget per unit of Euclidean distance.
    region:
        Optional :class:`Box`; when given, obfuscated points are clamped
        back into the region (post-processing, privacy-preserving).
    seed:
        RNG used when a call does not pass its own.
    """

    def __init__(
        self,
        epsilon: float,
        region: Box | None = None,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        self.epsilon = float(epsilon)
        self.region = region
        self._rng = ensure_rng(seed)

    # ------------------------------------------------------------------ #
    # densities                                                            #
    # ------------------------------------------------------------------ #

    def pdf(self, x, z) -> float:
        """Density of reporting ``z`` when the true location is ``x``."""
        eps = self.epsilon
        return eps**2 / (2.0 * np.pi) * float(np.exp(-eps * euclidean(x, z)))

    def radius_cdf(self, r) -> np.ndarray:
        """``P(R <= r)`` of the noise radius: ``1 - (1 + eps r) e^{-eps r}``."""
        r = np.asarray(r, dtype=np.float64)
        if np.any(r < 0):
            raise ValueError("radius must be non-negative")
        e = self.epsilon
        with np.errstate(under="ignore"):
            return 1.0 - (1.0 + e * r) * np.exp(-e * r)

    def inverse_radius_cdf(self, p) -> np.ndarray:
        """Closed-form inverse of :meth:`radius_cdf` via Lambert-W(-1)."""
        p = np.asarray(p, dtype=np.float64)
        if np.any((p < 0) | (p >= 1)):
            raise ValueError("p must lie in [0, 1)")
        # (p - 1)/e lies in [-1/e, 0); W_{-1} is real there but NaN at the
        # branch point itself (p = 0, where the radius is exactly 0).
        positive = p > 0.0
        out = np.zeros_like(p)
        if np.any(positive):
            from scipy.special import lambertw

            w = lambertw((p[positive] - 1.0) / np.e, k=-1).real
            # Subnormal p can still round (p-1)/e onto the branch point,
            # where lambertw returns NaN; the limit there is W = -1 (r = 0).
            w = np.where(np.isnan(w), -1.0, w)
            out[positive] = -(w + 1.0) / self.epsilon
        return out

    @property
    def mean_radius(self) -> float:
        """Expected noise magnitude ``E[R] = 2 / eps``."""
        return 2.0 / self.epsilon

    # ------------------------------------------------------------------ #
    # sampling                                                             #
    # ------------------------------------------------------------------ #

    def obfuscate(self, x, rng=None) -> np.ndarray:
        """Report a noisy location for the single true location ``x``."""
        return self.obfuscate_many(as_point(x).reshape(1, 2), rng)[0]

    def obfuscate_many(self, xs, rng=None) -> np.ndarray:
        """Vectorized obfuscation of an ``(n, 2)`` array of locations."""
        pts = as_points(xs)
        rng = self._rng if rng is None else ensure_rng(rng)
        n = len(pts)
        if n == 0:
            return pts.copy()
        theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
        radius = self.inverse_radius_cdf(rng.random(n))
        noisy = pts + np.column_stack(
            [radius * np.cos(theta), radius * np.sin(theta)]
        )
        if self.region is not None:
            noisy = self.region.clamp(noisy)
        return noisy

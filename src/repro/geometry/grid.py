"""Predefined point sets and nearest-point snapping.

The server in the paper constructs the HST over a *predefined* set of N
points published ahead of time (Sec. III-B): workers and tasks snap their
true location to the nearest predefined point before obfuscation. This
module provides the canonical uniform-grid point set used throughout the
reproduction plus a KD-tree snap index.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from .box import Box
from .points import as_point, as_points

__all__ = ["uniform_grid", "SnapIndex"]


def uniform_grid(box: Box, nx: int, ny: int | None = None) -> np.ndarray:
    """``nx * ny`` points forming a uniform lattice over ``box``.

    Points are placed at cell centers so the maximum snap displacement is
    half a cell diagonal. ``ny`` defaults to ``nx``. The returned array is
    ordered row-major (y outer, x inner) and is deterministic, making it a
    stable choice for the published predefined point set.
    """
    if ny is None:
        ny = nx
    if nx < 1 or ny < 1:
        raise ValueError(f"grid must be at least 1x1, got {nx}x{ny}")
    xs = box.xmin + (np.arange(nx) + 0.5) * (box.width / nx)
    ys = box.ymin + (np.arange(ny) + 0.5) * (box.height / ny)
    gx, gy = np.meshgrid(xs, ys)
    return np.column_stack([gx.ravel(), gy.ravel()])


class SnapIndex:
    """Nearest-predefined-point lookup backed by a KD-tree.

    This is the client-side "map location to an HST leaf" step: the index
    is built once from the published point set and then answers
    nearest-neighbour queries in O(log N).

    When the point set is recognised as a row-major uniform lattice (the
    shape every :func:`uniform_grid` announcement has), queries skip the
    KD-tree entirely: nearest-on-a-lattice separates per axis, so a snap
    is two subtract-scale-round operations and a clip — O(1), and an
    order of magnitude cheaper per single-event query. Arbitrary point
    sets keep the KD-tree path; both paths return the nearest point's
    index (ties on exact cell midlines may break differently between the
    two, which is why the lattice path, once detected, serves *all*
    queries for that index).
    """

    def __init__(self, points) -> None:
        pts = as_points(points)
        if len(pts) == 0:
            raise ValueError("snap index needs at least one predefined point")
        self._points = pts
        self._tree = cKDTree(pts)
        self._lattice = _detect_lattice(pts)

    def __len__(self) -> int:
        return len(self._points)

    @property
    def points(self) -> np.ndarray:
        """The predefined point set (read-only view)."""
        view = self._points.view()
        view.flags.writeable = False
        return view

    def snap(self, location) -> int:
        """Index of the predefined point nearest to ``location``."""
        if self._lattice is not None:
            x0, y0, inv_dx, inv_dy, nx, ny = self._lattice
            x, y = float(location[0]), float(location[1])
            ix = int((x - x0) * inv_dx + 0.5)
            iy = int((y - y0) * inv_dy + 0.5)
            if ix < 0:
                ix = 0
            elif ix >= nx:
                ix = nx - 1
            if iy < 0:
                iy = 0
            elif iy >= ny:
                iy = ny - 1
            return iy * nx + ix
        _, idx = self._tree.query(as_point(location))
        return int(idx)

    def snap_many(self, locations) -> np.ndarray:
        """Vectorized :meth:`snap` for an ``(n, 2)`` array of locations."""
        locs = as_points(locations)
        if len(locs) == 0:
            return np.empty(0, dtype=np.intp)
        if self._lattice is not None:
            x0, y0, inv_dx, inv_dy, nx, ny = self._lattice
            ix = np.floor((locs[:, 0] - x0) * inv_dx + 0.5).astype(np.intp)
            iy = np.floor((locs[:, 1] - y0) * inv_dy + 0.5).astype(np.intp)
            np.minimum(np.maximum(ix, 0, out=ix), nx - 1, out=ix)
            np.minimum(np.maximum(iy, 0, out=iy), ny - 1, out=iy)
            return iy * nx + ix
        _, idx = self._tree.query(locs)
        return np.asarray(idx, dtype=np.intp)

    def point(self, index: int) -> np.ndarray:
        """Coordinates of predefined point ``index``."""
        return self._points[index].copy()


def _detect_lattice(pts: np.ndarray):
    """Recognise a row-major uniform lattice in a point set.

    Returns ``(x0, y0, 1/dx, 1/dy, nx, ny)`` when ``pts`` is exactly the
    meshgrid layout :func:`uniform_grid` produces (y outer, x inner, even
    spacing on both axes), else ``None``. The check reconstructs the
    candidate lattice and compares bit-for-bit, so a false positive would
    require two different point sets with identical coordinates.
    """
    n = len(pts)
    if n == 1:
        return (float(pts[0, 0]), float(pts[0, 1]), 1.0, 1.0, 1, 1)
    xs = np.unique(pts[:, 0])
    ys = np.unique(pts[:, 1])
    nx, ny = len(xs), len(ys)
    if nx * ny != n:
        return None
    dx = (xs[-1] - xs[0]) / (nx - 1) if nx > 1 else 1.0
    dy = (ys[-1] - ys[0]) / (ny - 1) if ny > 1 else 1.0
    if dx <= 0 or dy <= 0:
        return None
    gx, gy = np.meshgrid(xs, ys)
    if not (
        np.array_equal(pts[:, 0], gx.ravel())
        and np.array_equal(pts[:, 1], gy.ravel())
        and np.allclose(np.diff(xs), dx, rtol=1e-9, atol=0.0)
        and np.allclose(np.diff(ys), dy, rtol=1e-9, atol=0.0)
    ):
        return None
    return (float(xs[0]), float(ys[0]), 1.0 / float(dx), 1.0 / float(dy), nx, ny)

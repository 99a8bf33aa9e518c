"""Predefined point sets and nearest-point snapping.

The server in the paper constructs the HST over a *predefined* set of N
points published ahead of time (Sec. III-B): workers and tasks snap their
true location to the nearest predefined point before obfuscation. This
module provides the canonical uniform-grid point set used throughout the
reproduction plus a snap index (lattice arithmetic, or a KD-tree for any
other point set).
"""

from __future__ import annotations

import math

import numpy as np

from .box import Box
from .points import as_point, as_points

__all__ = ["uniform_grid", "SnapIndex", "SNAP_PLAIN_MAX_ROWS"]

#: A lattice :meth:`SnapIndex.snap_many` call with at most this many rows
#: runs in plain Python; a larger one keeps the numpy form. Set from the
#: crossover ``benchmarks/bench_ablation_batch.py`` prints (the plain
#: form won through 29-32 rows in five sweeps on 2 CPUs).
SNAP_PLAIN_MAX_ROWS = 30

_REAL = (float, int)


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
    """Nearest-predefined-point lookup.

    This is the client-side "map location to an HST leaf" step: the index
    is built once from the published point set and then answers
    nearest-neighbour queries.

    When the point set is recognised as a row-major uniform lattice (the
    shape every :func:`uniform_grid` announcement has), a query is lattice
    arithmetic: nearest-on-a-lattice separates per axis, so a snap is two
    subtract-scale-round operations and a clamp — O(1). Any other point
    set is answered by a KD-tree in O(log N), built only for such a set.
    Both return the nearest point's index (ties on exact cell midlines
    may break differently between the two, which is why the lattice path,
    once detected, serves *all* queries for that index).
    """

    def __init__(self, points) -> None:
        pts = as_points(points)
        if len(pts) == 0:
            raise ValueError("snap index needs at least one predefined point")
        self._points = pts
        self._lattice = _detect_lattice(pts)
        self._tree = None
        if self._lattice is None:
            from scipy.spatial import cKDTree

            self._tree = cKDTree(pts)

    def __len__(self) -> int:
        return len(self._points)

    @property
    def points(self) -> np.ndarray:
        """The predefined point set (read-only view)."""
        view = self._points.view()
        view.flags.writeable = False
        return view

    def snap(self, location) -> int:
        """Index of the predefined point nearest to ``location``.

        ``location`` must be two finite coordinates, else ``ValueError``.
        """
        if self._lattice is None:
            _, idx = self._tree.query(as_point(location))
            return int(idx)
        xy = _plain_xy(location) or as_point(location).tolist()
        return self._snap_plain((xy,))[0]

    def snap_many(self, locations) -> np.ndarray:
        """Vectorized :meth:`snap` for an ``(n, 2)`` array of locations.

        On a lattice, a list, tuple or array of at most
        :data:`SNAP_PLAIN_MAX_ROWS` plain rows (two finite Python or numpy
        floats, or ints, each) runs :meth:`snap`'s arithmetic per row;
        anything else, larger or not, runs the numpy form, which also
        validates it (:func:`~repro.geometry.points.as_points`).
        """
        if self._lattice is not None:
            rows = _plain_rows(locations, SNAP_PLAIN_MAX_ROWS)
            if rows is not None:
                return np.array(self._snap_plain(rows), dtype=np.intp)
        locs = as_points(locations)
        if len(locs) == 0:
            return np.empty(0, dtype=np.intp)
        if self._lattice is None:
            _, idx = self._tree.query(locs)
            return np.asarray(idx, dtype=np.intp)
        x0, y0, inv_dx, inv_dy, nx, ny = self._lattice
        # clamp, then truncate: the index flooring then clamping gives,
        # and a coordinate far outside the box cannot overflow the cast
        fx = (locs[:, 0] - x0) * inv_dx + 0.5
        fy = (locs[:, 1] - y0) * inv_dy + 0.5
        ix = np.minimum(np.maximum(fx, 0.0, out=fx), nx - 1, out=fx).astype(np.intp)
        iy = np.minimum(np.maximum(fy, 0.0, out=fy), ny - 1, out=fy).astype(np.intp)
        return iy * nx + ix

    def _snap_plain(self, rows) -> list[int]:
        """The lattice snap in plain Python, on ``(x, y)`` float pairs
        already checked finite: the numpy form's clamp-then-truncate per
        row."""
        x0, y0, inv_dx, inv_dy, nx, ny = self._lattice
        top_x, top_y = nx - 1, ny - 1
        out = []
        for x, y in rows:
            fx = (x - x0) * inv_dx + 0.5
            fy = (y - y0) * inv_dy + 0.5
            ix = 0 if fx < 1.0 else top_x if fx >= top_x else int(fx)
            iy = 0 if fy < 1.0 else top_y if fy >= top_y else int(fy)
            out.append(iy * nx + ix)
        return out

    def point(self, index: int) -> np.ndarray:
        """Coordinates of predefined point ``index``."""
        return self._points[index].copy()


def _plain_xy(point):
    """``point`` as two Python floats when it is a list or tuple of two
    finite real numbers (Python or numpy floats, or ints), else ``None``."""
    if isinstance(point, (list, tuple)) and len(point) == 2:
        x, y = point
        if isinstance(x, _REAL) and isinstance(y, _REAL):
            x, y = float(x), float(y)
            if math.isfinite(x) and math.isfinite(y):
                return x, y
    return None


def _plain_rows(locations, limit: int):
    """``locations`` as ``(x, y)`` float pairs when it is a list, tuple or
    ``(n, 2)`` array of at most ``limit`` rows that :func:`_plain_xy`
    accepts, else ``None``."""
    if isinstance(locations, np.ndarray):
        if locations.ndim != 2 or locations.shape[1] != 2 or len(locations) > limit:
            return None
        locations = locations.tolist()
    elif not isinstance(locations, (list, tuple)) or len(locations) > limit:
        return None
    rows = [_plain_xy(point) for point in locations]
    return None if None in rows else rows


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

"""Tests for repro.geometry.grid."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Box, SnapIndex, grid, uniform_grid

#: The lattice index and a non-lattice one (three points, KD-tree).
LATTICE = SnapIndex(uniform_grid(Box.square(20.0), 5))
SCATTERED = SnapIndex([(0, 0), (10, 0), (0, 10)])

#: Not two finite coordinates: each must raise ValueError.
BAD_POINTS = [[math.inf, 1.0], [1.0], [1.0, 2.0, 3.0], [math.nan, 1.0]]


class TestUniformGrid:
    def test_count(self):
        assert uniform_grid(Box.square(10.0), 4, 3).shape == (12, 2)

    def test_square_default_ny(self):
        assert uniform_grid(Box.square(10.0), 5).shape == (25, 2)

    def test_points_at_cell_centers(self):
        pts = uniform_grid(Box.square(10.0), 2)
        expected = {(2.5, 2.5), (7.5, 2.5), (2.5, 7.5), (7.5, 7.5)}
        assert {tuple(p) for p in pts} == expected

    def test_contained_in_box(self):
        box = Box(-3, 4, 17, 9)
        assert box.contains(uniform_grid(box, 7, 5)).all()

    def test_distinct(self):
        pts = uniform_grid(Box.square(200.0), 16)
        assert len({tuple(p) for p in pts}) == len(pts)

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            uniform_grid(Box.square(1.0), 0)

    def test_deterministic(self):
        box = Box.square(50.0)
        assert np.array_equal(uniform_grid(box, 8), uniform_grid(box, 8))


class TestSnapIndex:
    def test_snaps_to_nearest(self):
        index = SnapIndex([(0, 0), (10, 0), (0, 10)])
        assert index.snap((1, 1)) == 0
        assert index.snap((9, 1)) == 1
        assert index.snap((1, 9)) == 2

    def test_exact_match(self):
        index = SnapIndex([(0, 0), (5, 5)])
        assert index.snap((5, 5)) == 1

    def test_snap_many_matches_snap(self):
        rng = np.random.default_rng(4)
        grid = uniform_grid(Box.square(20.0), 5)
        index = SnapIndex(grid)
        inside = rng.random((40, 2)) * 20
        # past every edge and corner of the box: the clamp picks the
        # nearest border point
        outside = np.array(
            [(-3.0, 10.0), (24.0, 10.0), (10.0, -0.6), (10.0, 21.0),
             (-5.0, -5.0), (30.0, 30.0), (-1.0, 25.0), (22.0, -9.0)]
        )
        for queries in (inside, outside):
            many = index.snap_many(queries)
            assert [index.snap(q) for q in queries] == many.tolist()

    def test_snap_many_empty(self):
        index = SnapIndex([(0, 0)])
        assert index.snap_many([]).shape == (0,)

    def test_len_and_point(self):
        index = SnapIndex([(0, 0), (1, 2)])
        assert len(index) == 2
        assert np.array_equal(index.point(1), [1.0, 2.0])

    def test_points_readonly(self):
        index = SnapIndex([(0, 0)])
        with pytest.raises(ValueError):
            index.points[0, 0] = 5.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SnapIndex([])

    def test_snap_error_bounded_by_half_cell_diagonal(self):
        box = Box.square(100.0)
        grid = uniform_grid(box, 10)
        index = SnapIndex(grid)
        rng = np.random.default_rng(2)
        queries = rng.random((100, 2)) * 100
        half_diag = np.hypot(5.0, 5.0)
        for q in queries:
            p = index.point(index.snap(q))
            assert np.hypot(*(p - q)) <= half_diag + 1e-9


class TestSnapValidation:
    """Every snap takes two finite coordinates and raises ValueError for
    anything else, on a lattice index as on a KD-tree one."""

    @pytest.mark.parametrize("index", [LATTICE, SCATTERED], ids=["lattice", "kdtree"])
    @pytest.mark.parametrize("bad", BAD_POINTS, ids=["inf", "one", "three", "nan"])
    def test_snap_rejects(self, index, bad):
        with pytest.raises(ValueError):
            index.snap(bad)
        with pytest.raises(ValueError):
            index.snap(np.array(bad))

    @pytest.mark.parametrize("index", [LATTICE, SCATTERED], ids=["lattice", "kdtree"])
    @pytest.mark.parametrize("bad", BAD_POINTS, ids=["inf", "one", "three", "nan"])
    def test_snap_many_rejects(self, index, bad):
        for rows in ([bad], [[5.0, 5.0], bad]):
            with pytest.raises(ValueError):
                index.snap_many(rows)
        if len(bad) == 2:
            with pytest.raises(ValueError):
                index.snap_many(np.array([[5.0, 5.0], bad]))

    def test_snap_many_takes_one_flat_point(self):
        # as_points promotes a flat pair to one row, small or not
        assert LATTICE.snap_many([3.0, 17.0]).tolist() == [LATTICE.snap((3.0, 17.0))]

    def test_only_a_scattered_set_builds_a_kdtree(self):
        assert LATTICE._tree is None
        assert SCATTERED._tree is not None


#: Coordinates around the 5 x 5 lattice over [0, 20]^2 (spacing 4, points
#: at 2, 6, ..., 18): inside, on the cell midlines, outside the box and
#: negative, as floats and ints.
_MIDLINES = [4.0 * k for k in range(-1, 7)]
_COORD = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False),
    st.floats(-5.0, 25.0, allow_nan=False),
    st.sampled_from(_MIDLINES),
    st.integers(-30, 50),
)
_ROWS = st.lists(st.tuples(_COORD, _COORD), max_size=grid.SNAP_PLAIN_MAX_ROWS + 1)


class TestSnapForms:
    """The plain-Python snap of a small batch equals the numpy form."""

    @settings(max_examples=200, deadline=None)
    @given(rows=_ROWS, as_array=st.booleans())
    def test_small_batch_matches_numpy_form(self, rows, as_array):
        locations = np.array(rows, dtype=np.float64).reshape(-1, 2) if as_array else [
            list(row) for row in rows
        ]
        got = LATTICE.snap_many(locations)
        with mock.patch.object(grid, "SNAP_PLAIN_MAX_ROWS", -1):
            want = LATTICE.snap_many(locations)
        assert got.dtype == want.dtype == np.intp
        assert got.tolist() == want.tolist()
        assert got.tolist() == [LATTICE.snap(row) for row in rows]

    def test_far_outside_the_box_snaps_to_the_nearest_edge(self):
        # past 2**63 cells away the numpy cast used to wrap to column 0
        far = [[1e300, 10.0], [-1e300, 10.0], [10.0, 1e300], [10.0, -1e300]]
        want = [LATTICE.snap(row) for row in far]
        assert want == [14, 10, 22, 2]
        assert LATTICE.snap_many(far).tolist() == want
        with mock.patch.object(grid, "SNAP_PLAIN_MAX_ROWS", -1):
            assert LATTICE.snap_many(far).tolist() == want

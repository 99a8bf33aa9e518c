"""Tests for repro.geometry.grid."""

import numpy as np
import pytest

from repro.geometry import Box, SnapIndex, uniform_grid


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

"""Tests for repro.geo.geometry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.geo.geometry import (
    BoundingBox,
    interpolate_position,
    point_segment_distance_m,
    point_to_polyline_distance_m,
)


class TestBoundingBox:
    def test_from_points(self):
        box = BoundingBox.from_points([45.0, 45.5, 44.8], [4.0, 4.2, 4.5])
        assert box.min_lat == 44.8
        assert box.max_lat == 45.5
        assert box.min_lon == 4.0
        assert box.max_lon == 4.5

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            BoundingBox(46.0, 4.0, 45.0, 5.0)
        with pytest.raises(ValueError):
            BoundingBox(45.0, 5.0, 46.0, 4.0)

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError):
            BoundingBox.from_points([], [])

    def test_contains_boundary_inclusive(self):
        box = BoundingBox(45.0, 4.0, 46.0, 5.0)
        assert box.contains(45.0, 4.0)
        assert box.contains(46.0, 5.0)
        assert box.contains(45.5, 4.5)
        assert not box.contains(44.9, 4.5)
        assert not box.contains(45.5, 5.1)

    def test_expanded_grows_every_side(self):
        box = BoundingBox(45.0, 4.0, 45.1, 4.1)
        bigger = box.expanded(1000.0)
        assert bigger.min_lat < box.min_lat
        assert bigger.max_lat > box.max_lat
        assert bigger.min_lon < box.min_lon
        assert bigger.max_lon > box.max_lon
        # 1000 m is roughly 0.009 degrees of latitude.
        assert box.min_lat - bigger.min_lat == pytest.approx(0.009, abs=0.001)

    def test_center_and_diagonal(self):
        box = BoundingBox(45.0, 4.0, 46.0, 5.0)
        assert box.center == (45.5, 4.5)
        assert box.diagonal_m > 100_000

    def test_intersects(self):
        a = BoundingBox(45.0, 4.0, 46.0, 5.0)
        b = BoundingBox(45.5, 4.5, 46.5, 5.5)
        c = BoundingBox(47.0, 6.0, 48.0, 7.0)
        assert a.intersects(b)
        assert b.intersects(a)
        assert not a.intersects(c)


class TestInterpolation:
    def test_endpoints(self):
        assert interpolate_position(45.0, 4.0, 46.0, 5.0, 0.0) == (45.0, 4.0)
        assert interpolate_position(45.0, 4.0, 46.0, 5.0, 1.0) == (46.0, 5.0)

    def test_midpoint(self):
        lat, lon = interpolate_position(45.0, 4.0, 46.0, 5.0, 0.5)
        assert lat == pytest.approx(45.5)
        assert lon == pytest.approx(4.5)

    def test_fraction_clamped(self):
        assert interpolate_position(45.0, 4.0, 46.0, 5.0, -1.0) == (45.0, 4.0)
        assert interpolate_position(45.0, 4.0, 46.0, 5.0, 2.0) == (46.0, 5.0)

    @pytest.mark.parametrize(("lon1", "lon2"), [(179.9, -179.9), (-179.9, 179.9)])
    def test_antimeridian_takes_the_short_way(self, lon1, lon2):
        _, lon = interpolate_position(10.0, lon1, 10.0, lon2, 0.25)
        assert abs(lon) == pytest.approx(179.95)
        _, mid = interpolate_position(10.0, lon1, 10.0, lon2, 0.5)
        assert abs(mid) == pytest.approx(180.0)
        assert -180.0 <= lon <= 180.0 and -180.0 <= mid <= 180.0

    def test_non_crossing_segments_unchanged_bitwise(self):
        rng = np.random.default_rng(0)
        for lon1, lon2, f in zip(
            rng.uniform(-180, 180, 500), rng.uniform(-180, 180, 500), rng.uniform(0, 1, 500)
        ):
            if abs(lon2 - lon1) <= 180.0:
                assert interpolate_position(0.0, lon1, 0.0, lon2, f)[1] == lon1 + f * (lon2 - lon1)


class TestPointSegmentDistance:
    def test_point_on_segment(self):
        assert point_segment_distance_m(5.0, 0.0, 0.0, 0.0, 10.0, 0.0) == 0.0

    def test_perpendicular_projection(self):
        assert point_segment_distance_m(5.0, 3.0, 0.0, 0.0, 10.0, 0.0) == pytest.approx(3.0)

    def test_beyond_endpoint_clamps(self):
        assert point_segment_distance_m(15.0, 0.0, 0.0, 0.0, 10.0, 0.0) == pytest.approx(5.0)
        assert point_segment_distance_m(-4.0, 3.0, 0.0, 0.0, 10.0, 0.0) == pytest.approx(5.0)

    def test_degenerate_segment(self):
        assert point_segment_distance_m(3.0, 4.0, 0.0, 0.0, 0.0, 0.0) == pytest.approx(5.0)


class TestPointPolylineDistance:
    def test_empty_polyline_raises(self):
        with pytest.raises(ValueError):
            point_to_polyline_distance_m(0.0, 0.0, np.array([]), np.array([]))

    def test_single_vertex(self):
        d = point_to_polyline_distance_m(3.0, 4.0, np.array([0.0]), np.array([0.0]))
        assert d == pytest.approx(5.0)

    def test_nearest_segment_wins(self):
        # L-shaped polyline: the point is nearest to the second segment.
        xs = np.array([0.0, 10.0, 10.0])
        ys = np.array([0.0, 0.0, 10.0])
        assert point_to_polyline_distance_m(12.0, 5.0, xs, ys) == pytest.approx(2.0)

    def test_point_on_polyline_is_zero(self):
        xs = np.array([0.0, 10.0, 20.0])
        ys = np.array([0.0, 0.0, 0.0])
        assert point_to_polyline_distance_m(15.0, 0.0, xs, ys) == pytest.approx(0.0, abs=1e-12)

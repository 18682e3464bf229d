"""Tests for repro.geo.polyline."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.distance import destination_point, haversine
from repro.geo.polyline import (
    cumulative_distances,
    path_length,
    position_at_distance,
    resample_at_distances,
    resample_by_distance,
)

from .conftest import make_antimeridian_trajectory


def straight_line(n: int, spacing_m: float = 100.0):
    """n points heading due east, spaced spacing_m apart."""
    lats, lons = [45.0], [4.0]
    for _ in range(n - 1):
        lat, lon = destination_point(lats[-1], lons[-1], 90.0, spacing_m)
        lats.append(lat)
        lons.append(lon)
    return np.array(lats), np.array(lons)


class TestCumulativeDistances:
    def test_empty_and_single(self):
        assert cumulative_distances(np.array([]), np.array([])).size == 0
        np.testing.assert_array_equal(cumulative_distances(np.array([45.0]), np.array([4.0])), [0.0])

    def test_monotone_and_starts_at_zero(self):
        lats, lons = straight_line(10)
        cum = cumulative_distances(lats, lons)
        assert cum[0] == 0.0
        assert np.all(np.diff(cum) >= 0.0)

    def test_total_matches_sum_of_segments(self):
        lats, lons = straight_line(10, spacing_m=250.0)
        assert path_length(lats, lons) == pytest.approx(9 * 250.0, rel=1e-6)


class TestPositionAtDistance:
    def test_clamping(self):
        lats, lons = straight_line(5, spacing_m=100.0)
        assert position_at_distance(lats, lons, -10.0) == (lats[0], lons[0])
        assert position_at_distance(lats, lons, 1e9) == (pytest.approx(lats[-1]), pytest.approx(lons[-1]))

    def test_midpoint_of_segment(self):
        lats, lons = straight_line(2, spacing_m=100.0)
        lat, lon = position_at_distance(lats, lons, 50.0)
        assert haversine(lats[0], lons[0], lat, lon) == pytest.approx(50.0, rel=1e-3)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            position_at_distance(np.array([]), np.array([]), 0.0)


class TestResample:
    def test_zero_step_rejected(self):
        lats, lons = straight_line(5)
        with pytest.raises(ValueError):
            resample_by_distance(lats, lons, 0.0)

    def test_spacing_is_constant(self):
        lats, lons = straight_line(20, spacing_m=130.0)
        out_lats, out_lons = resample_by_distance(lats, lons, 100.0, include_end=False)
        gaps = [
            haversine(out_lats[i], out_lons[i], out_lats[i + 1], out_lons[i + 1])
            for i in range(len(out_lats) - 1)
        ]
        np.testing.assert_allclose(gaps, 100.0, rtol=1e-3)

    def test_include_end_appends_last_vertex(self):
        lats, lons = straight_line(20, spacing_m=130.0)
        out_lats, out_lons = resample_by_distance(lats, lons, 100.0, include_end=True)
        assert out_lats[-1] == pytest.approx(lats[-1])
        assert out_lons[-1] == pytest.approx(lons[-1])

    def test_first_point_preserved(self):
        lats, lons = straight_line(20)
        out_lats, out_lons = resample_by_distance(lats, lons, 75.0)
        assert out_lats[0] == pytest.approx(lats[0])
        assert out_lons[0] == pytest.approx(lons[0])

    @given(step=st.floats(min_value=10.0, max_value=500.0))
    @settings(max_examples=30, deadline=None)
    def test_resampled_points_lie_near_the_polyline(self, step):
        lats, lons = straight_line(15, spacing_m=120.0)
        out_lats, out_lons = resample_by_distance(lats, lons, step)
        # A straight east-west line: every resampled point keeps the latitude.
        np.testing.assert_allclose(out_lats, 45.0, atol=1e-4)

    def test_resample_at_distances_vectorised(self):
        lats, lons = straight_line(10, spacing_m=100.0)
        targets = np.array([0.0, 150.0, 450.0])
        out_lats, out_lons = resample_at_distances(lats, lons, targets)
        assert out_lats.shape == (3,)
        assert haversine(lats[0], lons[0], out_lats[1], out_lons[1]) == pytest.approx(150.0, rel=1e-3)

    def test_single_point_polyline(self):
        out_lats, out_lons = resample_at_distances(
            np.array([45.0]), np.array([4.0]), np.array([0.0, 10.0])
        )
        np.testing.assert_array_equal(out_lats, [45.0, 45.0])
        np.testing.assert_array_equal(out_lons, [4.0, 4.0])

    def test_antimeridian_crossing_interpolates_the_short_way(self):
        raw = make_antimeridian_trajectory()
        lats, lons = np.asarray(raw.lats), np.asarray(raw.lons)
        total = path_length(lats, lons)
        assert total < 25_000.0
        out_lats, out_lons = resample_by_distance(lats, lons, 100.0)
        assert out_lats.size <= total / 100.0 + 2
        assert np.all((out_lons >= -180.0) & (out_lons <= 180.0))
        steps = [
            haversine(out_lats[i], out_lons[i], out_lats[i + 1], out_lons[i + 1])
            for i in range(out_lats.size - 1)
        ]
        assert max(steps) <= 100.0 + 1e-6
        # Half way along, the walk sits on the antimeridian, not near lon 0.
        _, mid_lon = position_at_distance(lats, lons, total / 2.0)
        assert abs(mid_lon) > 179.9

"""Tests for the utility metrics.

The oracle suite at the end pins the columnar metric kernels to the
set-based and rebuild-per-call formulations they replaced: area coverage
against ``Grid.cell_cover`` tuple sets, spatial distortion against a fresh
projection and KD-tree per call, bitwise.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.geo_indistinguishability import GeoIndConfig, GeoIndistinguishabilityMechanism
from repro.core.speed_smoothing import smooth_dataset
from repro.core.trajectory import MobilityDataset, Trajectory
from repro.experiments.worlds import make_world
from repro.geo.geometry import BoundingBox
from repro.geo.grid import Grid
from repro.geo.kernels import _blockwise_nearest_distances
from repro.geo.projection import LocalProjection
from repro.io.world_store import WorldStore
from repro.metrics.utility import (
    CoverageScore,
    DistortionSummary,
    area_coverage,
    dataset_spatial_distortion,
    point_retention,
    range_query_distortion,
    trajectory_spatial_distortion,
    trip_length_error,
)


class TestDistortionSummary:
    def test_from_empty(self):
        summary = DistortionSummary.from_distances(np.array([]))
        assert summary.n_points == 0
        assert summary.mean == 0.0

    def test_statistics(self):
        summary = DistortionSummary.from_distances(np.array([0.0, 10.0, 20.0, 30.0]))
        assert summary.mean == 15.0
        assert summary.median == 15.0
        assert summary.max == 30.0
        assert summary.n_points == 4


class TestTrajectoryDistortion:
    def test_identical_trajectory_has_zero_distortion(self, line_trajectory):
        distances = trajectory_spatial_distortion(line_trajectory, line_trajectory)
        np.testing.assert_allclose(distances, 0.0, atol=1e-6)

    def test_offset_trajectory_measures_the_offset(self, line_trajectory):
        offset_deg = 300.0 / 111_195.0
        shifted = Trajectory(
            "u", line_trajectory.timestamps, np.asarray(line_trajectory.lats) + offset_deg, line_trajectory.lons
        )
        distances = trajectory_spatial_distortion(line_trajectory, shifted)
        np.testing.assert_allclose(distances, 300.0, rtol=0.02)

    def test_empty_original_raises(self, line_trajectory):
        with pytest.raises(ValueError):
            trajectory_spatial_distortion(Trajectory.empty("u"), line_trajectory)

    def test_empty_published_gives_empty(self, line_trajectory):
        assert trajectory_spatial_distortion(line_trajectory, Trajectory.empty("u")).size == 0


class TestDatasetDistortion:
    def test_smoothing_has_low_distortion(self, small_dataset):
        published = smooth_dataset(small_dataset, epsilon_m=100.0)
        summary = dataset_spatial_distortion(small_dataset, published)
        assert summary.median < 50.0

    def test_noise_has_high_distortion(self, small_dataset):
        noisy = GeoIndistinguishabilityMechanism(GeoIndConfig(seed=0)).publish(small_dataset)
        noisy_summary = dataset_spatial_distortion(small_dataset, noisy)
        smooth_summary = dataset_spatial_distortion(small_dataset, smooth_dataset(small_dataset))
        assert noisy_summary.median > smooth_summary.median

    def test_match_by_user_variant(self, small_dataset):
        published = smooth_dataset(small_dataset, epsilon_m=100.0)
        summary = dataset_spatial_distortion(small_dataset, published, match_by_user=True)
        assert summary.n_points == published.n_points
        assert summary.median < 100.0

    def test_empty_original_raises(self, small_dataset):
        with pytest.raises(ValueError):
            dataset_spatial_distortion(MobilityDataset(), small_dataset)


class TestAreaCoverage:
    def test_identical_datasets_have_perfect_coverage(self, small_dataset):
        score = area_coverage(small_dataset, small_dataset, cell_size_m=200.0)
        assert score.precision == 1.0
        assert score.recall == 1.0
        assert score.f_score == 1.0

    def test_empty_published_has_zero_recall(self, small_dataset):
        score = area_coverage(small_dataset, MobilityDataset(), cell_size_m=200.0)
        assert score.recall == 0.0
        assert score.f_score == 0.0

    def test_from_covers_edge_cases(self):
        assert CoverageScore.from_covers(set(), set()).f_score == 1.0
        assert CoverageScore.from_covers({(0, 0)}, set()).recall == 0.0
        assert CoverageScore.from_covers(set(), {(0, 0)}).precision == 0.0

    def test_smoothing_keeps_high_coverage(self, small_dataset):
        published = smooth_dataset(small_dataset, epsilon_m=100.0)
        score = area_coverage(small_dataset, published, cell_size_m=400.0)
        assert score.recall > 0.7

    def test_empty_original_raises(self, small_dataset):
        with pytest.raises(ValueError):
            area_coverage(MobilityDataset(), small_dataset)


class TestOtherMetrics:
    def test_point_retention(self, small_dataset):
        assert point_retention(small_dataset, small_dataset) == 1.0
        assert point_retention(small_dataset, MobilityDataset()) == 0.0
        assert point_retention(MobilityDataset(), MobilityDataset()) == 0.0

    def test_trip_length_error_zero_for_identity(self, small_dataset):
        assert trip_length_error(small_dataset, small_dataset) == 0.0

    def test_trip_length_error_for_empty_publication(self, small_dataset):
        assert trip_length_error(small_dataset, MobilityDataset()) == 1.0

    def test_range_query_distortion_zero_for_identity(self, small_dataset):
        error = range_query_distortion(small_dataset, small_dataset, n_queries=50, seed=1)
        assert error == 0.0

    def test_range_query_distortion_positive_for_noise(self, small_dataset):
        noisy = GeoIndistinguishabilityMechanism(GeoIndConfig(seed=0)).publish(small_dataset)
        error = range_query_distortion(small_dataset, noisy, n_queries=50, seed=1)
        assert error > 0.0

    def test_range_query_requires_queries(self, small_dataset):
        with pytest.raises(ValueError):
            range_query_distortion(small_dataset, small_dataset, n_queries=0)


# ---------------------------------------------------------------------------
# Oracle suite: columnar metric kernels vs. the formulations they replaced
# ---------------------------------------------------------------------------

#: Original worlds live in this box; published points may leave it.
_LAT0, _LON0, _SPAN = 45.75, 4.85, 0.02


@st.composite
def _datasets(draw, min_points: int = 0, spill: float = 0.0):
    """1-4 users of 0-12 fixes near Lyon; ``spill`` widens the coordinate box."""
    half = _SPAN / 2.0 + spill
    coords = st.floats(-half, half, allow_nan=False)
    trajectories = []
    for k in range(draw(st.integers(1, 4))):
        points = draw(st.lists(st.tuples(coords, coords), max_size=12))
        lats = [_LAT0 + dlat for dlat, _ in points]
        lons = [_LON0 + dlon for _, dlon in points]
        trajectories.append(Trajectory(f"u{k}", np.arange(len(points), dtype=float), lats, lons))
    dataset = MobilityDataset(trajectories)
    if dataset.n_points < min_points:
        dataset = MobilityDataset(
            trajectories + [Trajectory("pad", [0.0], [_LAT0], [_LON0])]
        )
    return dataset


def _coverage_oracle(original, published, cell_size_m, bbox=None):
    """E3 as tuple-set covers over copied coordinates (the set formulation)."""
    grid = Grid.covering(bbox or original.bbox.expanded(cell_size_m), cell_size_m)
    orig_lats, orig_lons = original.all_coordinates()
    pub_lats, pub_lons = published.all_coordinates()
    return CoverageScore.from_covers(
        grid.cell_cover(orig_lats, orig_lons),
        grid.cell_cover(pub_lats, pub_lons) if pub_lats.size else set(),
    )


def _distortion_oracle(original, published):
    """E2 with the projection and KD-tree rebuilt from scratch on every call."""
    from scipy.spatial import cKDTree

    orig_lats, orig_lons = original.all_coordinates()
    pub_lats, pub_lons = published.all_coordinates()
    if pub_lats.size == 0:
        return DistortionSummary.from_distances(np.zeros(0))
    projection = LocalProjection.centered_on(orig_lats, orig_lons)
    oxs, oys = projection.project_array(orig_lats, orig_lons)
    pxs, pys = projection.project_array(pub_lats, pub_lons)
    distances, _ = cKDTree(np.stack([oxs, oys], axis=1)).query(np.stack([pxs, pys], axis=1), k=1)
    return DistortionSummary.from_distances(np.asarray(distances, dtype=float))


def _fresh_copy(dataset):
    """An equal dataset sharing no cached derived state with ``dataset``."""
    return pickle.loads(pickle.dumps(dataset))


def _assert_bitwise(got, want):
    # Pickles compare field values bit for bit *and* their Python types.
    assert pickle.dumps(got) == pickle.dumps(want)


class TestAreaCoverageOracle:
    @given(
        original=_datasets(min_points=1),
        published=_datasets(spill=0.03),
        cell_size_m=st.sampled_from([25.0, 100.0, 400.0, 5000.0]),
        caller_bbox=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_equals_tuple_set_covers(self, original, published, cell_size_m, caller_bbox):
        # A caller bbox smaller than the data clamps points into edge cells;
        # the spilled publication leaves the default grid as well.
        bbox = (
            BoundingBox(_LAT0 - 0.005, _LON0 - 0.005, _LAT0 + 0.005, _LON0 + 0.005)
            if caller_bbox
            else None
        )
        got = area_coverage(original, published, cell_size_m=cell_size_m, bbox=bbox)
        _assert_bitwise(got, _coverage_oracle(original, published, cell_size_m, bbox))

    def test_empty_publication_and_single_points(self):
        single = MobilityDataset([Trajectory("a", [0.0], [_LAT0], [_LON0])])
        far = MobilityDataset([Trajectory("b", [0.0], [_LAT0 + 1.0], [_LON0 - 1.0])])
        for original, published in (
            (single, MobilityDataset()),
            (single, MobilityDataset([Trajectory.empty("x")])),
            (single, single),
            (single, far),
            (far, single),
        ):
            got = area_coverage(original, published, cell_size_m=200.0)
            _assert_bitwise(got, _coverage_oracle(original, published, 200.0))

    def test_from_counts_is_the_from_covers_formula(self):
        original, published = {(0, 0), (0, 1), (2, 2)}, {(0, 1), (5, 5)}
        _assert_bitwise(
            CoverageScore.from_covers(original, published), CoverageScore.from_counts(3, 2, 1)
        )


class TestSpatialDistortionOracle:
    @given(original=_datasets(min_points=1), published=_datasets(spill=0.03))
    @settings(max_examples=80, deadline=None)
    def test_equals_rebuild_per_call(self, original, published):
        got = dataset_spatial_distortion(original, published)
        _assert_bitwise(got, _distortion_oracle(_fresh_copy(original), published))

    def test_call_sequence_on_one_original_equals_fresh_copies(self, small_dataset):
        original = _fresh_copy(small_dataset)
        publications = [
            smooth_dataset(small_dataset, epsilon_m=100.0),
            GeoIndistinguishabilityMechanism(GeoIndConfig(seed=0)).publish(small_dataset),
            small_dataset.subset(small_dataset.user_ids[:2]),
            MobilityDataset(),
            small_dataset,
        ]
        # Twice round, so later calls hit the cached index of earlier ones.
        for published in publications + publications:
            got = dataset_spatial_distortion(original, published)
            _assert_bitwise(got, dataset_spatial_distortion(_fresh_copy(original), published))
            _assert_bitwise(got, _distortion_oracle(_fresh_copy(original), published))

    def test_blockwise_fallback_matches_kd_tree(self):
        from scipy.spatial import cKDTree

        rng = np.random.default_rng(5)
        reference = rng.uniform(-5_000.0, 5_000.0, (1_500, 2))
        query = rng.uniform(-6_000.0, 6_000.0, (1_100, 2))
        want, _ = cKDTree(reference).query(query, k=1)
        np.testing.assert_allclose(
            _blockwise_nearest_distances(query, reference), want, rtol=1e-12, atol=1e-9
        )


class TestMetricsLeaveDatasetsValueLike:
    def test_pickle_size_unchanged_by_metric_calls(self, small_dataset):
        original = _fresh_copy(small_dataset)
        published = smooth_dataset(small_dataset, epsilon_m=100.0)
        before = len(pickle.dumps(original))
        dataset_spatial_distortion(original, published)
        area_coverage(original, published, cell_size_m=200.0)
        range_query_distortion(original, published, n_queries=20)
        assert len(pickle.dumps(original)) == before


class TestMetricsOnStoreWorlds:
    @pytest.fixture
    def store_path(self, tmp_path, small_dataset):
        return WorldStore.write(small_dataset, tmp_path / "world").path

    def _assert_metrics_equal(self, original, reference):
        published = smooth_dataset(reference, epsilon_m=100.0)
        before = len(pickle.dumps(original))
        _assert_bitwise(
            dataset_spatial_distortion(original, published),
            dataset_spatial_distortion(reference, published),
        )
        for cell_size_m in (100.0, 400.0):
            _assert_bitwise(
                area_coverage(original, published, cell_size_m=cell_size_m),
                area_coverage(reference, published, cell_size_m=cell_size_m),
            )
        assert len(pickle.dumps(original)) == before

    def test_store_world(self, store_path, small_dataset):
        original = make_world(f"store:path={store_path}").dataset
        self._assert_metrics_equal(original, _fresh_copy(small_dataset))

    def test_store_shard(self, store_path, small_dataset):
        original = make_world(f"store:path={store_path},shard=1/2").dataset
        self._assert_metrics_equal(original, small_dataset.subset(small_dataset.user_ids[1::2]))


class TestBoundingBoxInputs:
    @given(
        points=st.lists(
            st.tuples(st.floats(-90.0, 90.0), st.floats(-180.0, 180.0)), min_size=1, max_size=30
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_array_list_and_generator_agree(self, points):
        lats = [lat for lat, _ in points]
        lons = [lon for _, lon in points]
        from_array = BoundingBox.from_points(np.asarray(lats), np.asarray(lons))
        assert BoundingBox.from_points(lats, lons) == from_array
        assert BoundingBox.from_points((x for x in lats), (x for x in lons)) == from_array
        _assert_bitwise(from_array, BoundingBox(min(lats), min(lons), max(lats), max(lons)))

    def test_dataset_bbox_equals_concatenated_users(self, small_dataset):
        non_empty = [t for t in small_dataset if len(t)]
        want = BoundingBox.from_points(
            list(np.concatenate([t.lats for t in non_empty])),
            list(np.concatenate([t.lons for t in non_empty])),
        )
        _assert_bitwise(small_dataset.bbox, want)

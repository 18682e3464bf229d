"""Tests for the speed-smoothing mechanism (the paper's first contribution)."""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.registry import make_mechanism
from repro.attacks.poi_extraction import PoiExtractor
from repro.core import speed_smoothing
from repro.core.speed_smoothing import (
    SpeedSmoother,
    SpeedSmoothingConfig,
    _chained_resample_reference,
    smooth_dataset,
    smooth_trajectory,
    smooth_trajectory_naive,
)
from repro.core.trajectory import MobilityDataset, Trajectory
from repro.geo.distance import haversine, haversine_array, meters_per_degree
from repro.geo.kernels import chained_resample
from repro.geo.polyline import path_length

from .conftest import (
    make_antimeridian_trajectory,
    make_line_trajectory,
    make_stop_and_go_trajectory,
)


def consecutive_distances(traj: Trajectory) -> np.ndarray:
    return traj.segment_distances()


class TestConfig:
    def test_invalid_parameters_rejected(self):
        # Sub-metre epsilon only resamples GPS noise, and a vanishing one
        # (1e-300) would emit path/epsilon points and exhaust memory.
        for epsilon in (0.0, 0.5, 1e-300):
            with pytest.raises(ValueError):
                SpeedSmoothingConfig(epsilon_m=epsilon)
        assert SpeedSmoothingConfig(epsilon_m=1.0).epsilon_m == 1.0
        with pytest.raises(ValueError):
            SpeedSmoothingConfig(trim_start_m=-1.0)
        with pytest.raises(ValueError):
            SpeedSmoothingConfig(min_points=1)
        with pytest.raises(ValueError):
            SpeedSmoothingConfig(session_gap_s=0.0)
        # NaN slips through ordered comparisons: it used to publish nothing
        # (epsilon_m), disable session splitting (session_gap_s) or fail only
        # at publish time (trims).
        for field in ("epsilon_m", "trim_start_m", "trim_end_m", "session_gap_s"):
            for value in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError):
                    SpeedSmoothingConfig(**{field: value})

    def test_non_finite_spec_rejected_at_construction(self):
        for spec in (
            "smoothing:epsilon_m=nan",
            "smoothing:session_gap_s=nan",
            "promesse:epsilon_m=inf",
            "smoothing:epsilon_m=0.5",
            "smoothing:epsilon_m=1e-300",
            "promesse:epsilon_m=0.5",
            "promesse:epsilon_m=1e-300",
        ):
            with pytest.raises(ValueError):
                make_mechanism(spec)

    def test_session_gap_can_be_disabled(self):
        assert SpeedSmoothingConfig(session_gap_s=None).session_gap_s is None


class TestConstantSpeedInvariants:
    def test_constant_spacing(self, stop_and_go_trajectory):
        smoothed = smooth_trajectory(stop_and_go_trajectory, epsilon_m=100.0)
        gaps = consecutive_distances(smoothed)
        np.testing.assert_allclose(gaps, 100.0, rtol=1e-3)

    def test_constant_duration(self, stop_and_go_trajectory):
        smoothed = smooth_trajectory(stop_and_go_trajectory, epsilon_m=100.0)
        durations = smoothed.segment_durations()
        np.testing.assert_allclose(durations, durations[0], rtol=1e-9)

    def test_time_span_preserved(self, stop_and_go_trajectory):
        smoothed = smooth_trajectory(stop_and_go_trajectory, epsilon_m=100.0)
        assert smoothed.first.timestamp == stop_and_go_trajectory.first.timestamp
        assert smoothed.last.timestamp == stop_and_go_trajectory.last.timestamp

    def test_constant_speed(self, stop_and_go_trajectory):
        smoothed = smooth_trajectory(stop_and_go_trajectory, epsilon_m=100.0)
        speeds = smoothed.speeds()
        np.testing.assert_allclose(speeds, speeds[0], rtol=1e-3)

    def test_user_id_preserved(self, stop_and_go_trajectory):
        assert smooth_trajectory(stop_and_go_trajectory).user_id == stop_and_go_trajectory.user_id

    def test_original_not_modified(self, stop_and_go_trajectory):
        before = stop_and_go_trajectory.to_arrays()
        smooth_trajectory(stop_and_go_trajectory, epsilon_m=100.0)
        after = stop_and_go_trajectory.to_arrays()
        for a, b in zip(before, after):
            np.testing.assert_array_equal(a, b)

    @given(epsilon=st.floats(min_value=40.0, max_value=400.0))
    @settings(max_examples=25, deadline=None)
    def test_spacing_equals_epsilon_for_any_epsilon(self, epsilon):
        traj = make_stop_and_go_trajectory()
        smoothed = smooth_trajectory(traj, epsilon_m=epsilon)
        if len(smoothed) >= 2:
            np.testing.assert_allclose(consecutive_distances(smoothed), epsilon, rtol=1e-3)

    def test_points_stay_close_to_recorded_path(self, line_trajectory):
        smoothed = smooth_trajectory(line_trajectory, epsilon_m=120.0)
        # On a straight east-bound line every published point keeps the latitude.
        np.testing.assert_allclose(np.asarray(smoothed.lats), line_trajectory.first.lat, atol=1e-5)


class TestPoiHiding:
    def test_stop_invisible_after_smoothing(self, stop_and_go_trajectory):
        """The central claim of the paper: the stop disappears from the output."""
        extractor = PoiExtractor()
        assert len(extractor.extract(stop_and_go_trajectory)) == 1
        smoothed = smooth_trajectory(stop_and_go_trajectory, epsilon_m=100.0)
        assert extractor.extract(smoothed) == []

    def test_naive_index_resampling_leaks_the_stop(self, stop_and_go_trajectory):
        """Ablation: index-based resampling does not hide the stop."""
        extractor = PoiExtractor()
        naive = smooth_trajectory_naive(stop_and_go_trajectory, keep_every=5)
        assert len(extractor.extract(naive)) >= 1

    def test_naive_parameters_validated(self, stop_and_go_trajectory):
        with pytest.raises(ValueError):
            smooth_trajectory_naive(stop_and_go_trajectory, keep_every=0)
        assert len(smooth_trajectory_naive(Trajectory.empty("u"), keep_every=2)) == 0


class TestEdgeCases:
    def test_too_short_trajectory_suppressed(self):
        single = Trajectory("u", [0.0], [45.0], [4.0])
        assert len(smooth_trajectory(single)) == 0

    def test_stationary_trajectory_suppressed(self):
        # 30 minutes sitting still: nothing can be published safely.
        times = np.arange(0.0, 1800.0, 30.0)
        still = Trajectory("u", times, np.full(times.size, 45.0), np.full(times.size, 4.0))
        assert len(smooth_trajectory(still, epsilon_m=100.0)) == 0

    def test_trimming_removes_endpoints(self, line_trajectory):
        plain = smooth_trajectory(line_trajectory, epsilon_m=100.0)
        trimmed = smooth_trajectory(
            line_trajectory, epsilon_m=100.0, trim_start_m=200.0, trim_end_m=200.0
        )
        assert len(trimmed) == len(plain) - 4
        # The trimmed trace starts away from the original departure point.
        d = haversine(
            trimmed.first.lat, trimmed.first.lon, line_trajectory.first.lat, line_trajectory.first.lon
        )
        assert d >= 199.0

    def test_trim_longer_than_the_session_suppresses_it(self):
        # ~840 m east in 8.5 m steps: 9 points at 100 m spacing.  Trimming
        # 1.2 km off either end must leave nothing, not wrap round to a
        # prefix of the departure.
        lons = 4.0 + np.arange(100) * 0.0001
        line = Trajectory("u", np.arange(100) * 10.0, np.full(100, 45.0), lons)
        assert len(smooth_trajectory(line, epsilon_m=100.0)) > 2
        assert len(smooth_trajectory(line, epsilon_m=100.0, trim_end_m=1200.0)) == 0
        assert len(smooth_trajectory(line, epsilon_m=100.0, trim_start_m=1200.0)) == 0

    def test_sessions_smoothed_independently(self):
        """A long recording gap keeps its two sides' time ranges separate."""
        first = make_line_trajectory(n_points=50, start_time=0.0, interval_s=10.0)
        second = make_line_trajectory(n_points=50, start_time=100_000.0, interval_s=10.0, bearing_deg=0.0)
        combined = first.append(second)
        smoothed = smooth_trajectory(combined, epsilon_m=100.0, session_gap_s=3600.0)
        gaps = smoothed.segment_durations()
        # One published gap spans the recording hole; all others are short.
        assert np.sum(gaps > 10_000.0) == 1
        assert smoothed.first.timestamp == 0.0
        assert smoothed.last.timestamp == combined.last.timestamp

    def test_empty_dataset_smoothing(self):
        assert len(smooth_dataset(MobilityDataset())) == 0

    @pytest.mark.parametrize("spec", ["smoothing:epsilon_m=100.0", "promesse:swap=never,seed=0"])
    def test_antimeridian_crossing_walks_the_short_way(self, spec):
        """Crossing 180 must not send the walk round the globe at 100 m spacing."""
        raw = make_antimeridian_trajectory()
        published = make_mechanism(spec).publish(MobilityDataset([raw])).dataset
        bound = path_length(np.asarray(raw.lats), np.asarray(raw.lons)) / 100.0 + 2
        assert 0 < published.n_points <= bound
        for trajectory in published:
            lons = np.asarray(trajectory.lons)
            assert np.all((lons >= -180.0) & (lons <= 180.0))
            assert np.all(np.abs(np.asarray(trajectory.lats) - 10.0) < 1e-6)


class TestDatasetSmoothing:
    def test_drop_empty_users(self):
        good = make_stop_and_go_trajectory(user_id="good")
        still_times = np.arange(0.0, 1800.0, 30.0)
        still = Trajectory("still", still_times, np.full(still_times.size, 45.0), np.full(still_times.size, 4.0))
        dataset = MobilityDataset([good, still])
        published = SpeedSmoother().smooth_dataset(dataset)
        assert published.user_ids == ["good"]
        kept = SpeedSmoother().smooth_dataset(dataset, drop_empty=False)
        assert len(kept) == 2
        assert len(kept["still"]) == 0

    def test_smooth_dataset_function(self, small_dataset):
        published = smooth_dataset(small_dataset, epsilon_m=150.0)
        assert len(published) > 0
        assert published.n_points < small_dataset.n_points


# ---------------------------------------------------------------------------
# Bitwise oracle: the lockstep kernel against the scalar walk
# ---------------------------------------------------------------------------

#: Step sizes as multiples of epsilon: GPS jitter, ordinary moves, and long
#: segments that emit many points from one raw fix.
_STEP_SCALES = {"jitter": 0.05, "move": 2.0, "long": 25.0}


@st.composite
def walk_sessions(draw):
    """Flattened sessions ``(lats, lons, starts, ends, epsilon_m)`` for the walk."""
    epsilon = draw(st.sampled_from([1.0, 37.5, 100.0, 250.0]))
    # Walks from (0, 0) emit fl(fraction * delta) with nothing added, so an
    # ULP of disagreement in the distance shows in the output bits.
    base_lat = draw(st.sampled_from([0.0, 45.76, 10.0, 89.9, -89.9]))
    base_lon = draw(st.sampled_from([0.0, 4.83, 179.99, -179.99]))
    lats, lons, starts, ends = [], [], [], []
    for _ in range(draw(st.integers(0, 6))):
        starts.append(len(lats))
        lat, lon = base_lat, base_lon
        steps = draw(
            st.lists(
                st.tuples(
                    st.sampled_from(sorted(_STEP_SCALES)),
                    st.floats(-1.0, 1.0),
                    st.floats(-1.0, 1.0),
                ),
                max_size=30,
            )
        )
        for kind, north, east in [("jitter", 0.0, 0.0)] + steps:
            lat_m, lon_m = meters_per_degree(lat)
            scale = _STEP_SCALES[kind] * epsilon
            lat = min(90.0, max(-90.0, lat + north * scale / lat_m))
            lon = (lon + east * scale / lon_m + 180.0) % 360.0 - 180.0
            lats.append(lat)
            lons.append(lon)
        ends.append(len(lats))
    lats, lons = np.asarray(lats, dtype=float), np.asarray(lons, dtype=float)
    if draw(st.booleans()) and len(lats) >= 2 and ends[0] - starts[0] >= 2:
        # A raw fix exactly epsilon from the walker: the first fix of the
        # first session is the walker, its second fix sets epsilon.
        exact = haversine(lats[0], lons[0], lats[1], lons[1])
        epsilon = exact if exact >= 1.0 else epsilon
    return lats, lons, np.asarray(starts, dtype=np.int64), np.asarray(ends, dtype=np.int64), epsilon


def _assert_walks_equal(lats, lons, starts, ends, epsilon):
    kernel = chained_resample(lats, lons, starts, ends, epsilon)
    scalar = _chained_resample_reference(lats, lons, starts, ends, epsilon)
    for got, want in zip(kernel, scalar):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    return kernel


def _smooth_both_ways(dataset, drop_empty=True, **config):
    """``smooth_dataset`` once through each walk of the dispatch."""
    smoother = SpeedSmoother(SpeedSmoothingConfig(**config))
    with mock.patch.object(speed_smoothing, "LOCKSTEP_MIN_SESSIONS", 0):
        lockstep = smoother.smooth_dataset(dataset, drop_empty=drop_empty)
    with mock.patch.object(speed_smoothing, "LOCKSTEP_MIN_SESSIONS", 10**9):
        scalar = smoother.smooth_dataset(dataset, drop_empty=drop_empty)
    return lockstep, scalar


def _assert_datasets_bitwise_equal(got, want):
    assert got.user_ids == want.user_ids
    for a, b in zip(got, want):
        for x, y in zip(a.to_arrays(), b.to_arrays()):
            assert np.array_equal(x, y)


def _smooth_reference(dataset, drop_empty=True, **config):
    """Session by session with np.linspace: the per-trajectory formulation."""
    cfg = SpeedSmoothingConfig(**config)
    drop_start = math.ceil(cfg.trim_start_m / cfg.epsilon_m)
    drop_end = math.ceil(cfg.trim_end_m / cfg.epsilon_m)
    out = []
    for trajectory in dataset:
        if cfg.session_gap_s is not None:
            sessions = trajectory.split_by_gap(cfg.session_gap_s)
        else:
            sessions = [trajectory] if len(trajectory) else []
        pieces = []
        for session in sessions:
            if len(session) < cfg.min_points:
                continue
            _, lats, lons = _chained_resample_reference(
                session.lats, session.lons, np.array([0]), np.array([len(session)]), cfg.epsilon_m
            )
            lats, lons = lats[drop_start : lats.size - drop_end], lons[drop_start : lons.size - drop_end]
            if lats.size >= 2:
                times = np.linspace(session.timestamps[0], session.timestamps[-1], num=lats.size)
                pieces.append((times, lats, lons))
        if pieces or not drop_empty:
            columns = [np.concatenate([p[k] for p in pieces]) if pieces else np.zeros(0) for k in range(3)]
            out.append(Trajectory(trajectory.user_id, *columns))
    return MobilityDataset(out)


@st.composite
def smoothing_datasets(draw):
    """Datasets of 0-5 users with duplicate timestamps and recording gaps."""
    lats, lons, starts, ends, epsilon = draw(walk_sessions())
    trajectories = []
    n_users = draw(st.integers(1, 5)) if starts.size else 0
    owner = sorted(draw(st.lists(st.integers(0, max(n_users - 1, 0)), min_size=starts.size, max_size=starts.size)))
    for user in range(n_users):
        times, ulats, ulons = [], [], []
        t = 1_000_000.0
        for s in [s for s, o in zip(range(starts.size), owner) if o == user]:
            t += 5000.0  # longer than the default session gap
            for k in range(starts[s], ends[s]):
                times.append(t)
                ulats.append(lats[k])
                ulons.append(lons[k])
                t += draw(st.sampled_from([0.0, 1.0, 30.0]))  # 0: duplicate timestamp
        trajectories.append(Trajectory(f"u{user}", times, ulats, ulons))
    return MobilityDataset(trajectories), epsilon


class TestLockstepWalkOracle:
    @given(case=walk_sessions())
    @settings(max_examples=150, deadline=None)
    def test_kernel_matches_scalar_walk(self, case):
        _assert_walks_equal(*case)

    @given(
        case=smoothing_datasets(),
        session_gap_s=st.sampled_from([None, 1800.0]),
        trims=st.sampled_from([(0.0, 0.0), (150.0, 0.0), (250.0, 250.0)]),
        min_points=st.sampled_from([2, 3]),
        drop_empty=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_smooth_dataset_is_bitwise_identical_on_both_walks(
        self, case, session_gap_s, trims, min_points, drop_empty
    ):
        dataset, epsilon = case
        config = dict(
            epsilon_m=epsilon,
            session_gap_s=session_gap_s,
            trim_start_m=trims[0],
            trim_end_m=trims[1],
            min_points=min_points,
        )
        lockstep, scalar = _smooth_both_ways(dataset, drop_empty=drop_empty, **config)
        _assert_datasets_bitwise_equal(lockstep, scalar)
        _assert_datasets_bitwise_equal(lockstep, _smooth_reference(dataset, drop_empty, **config))

    def test_distance_ulp_disagreements_do_not_leak(self):
        # Segments from (0, 0) whose numpy haversine differs from the scalar
        # libm one by an ULP: the first emitted point is fl(fraction * delta),
        # so a fraction computed from the numpy distance would show.
        rng = np.random.default_rng(5)
        to_lat = rng.uniform(-0.01, 0.01, 50_000)
        to_lon = rng.uniform(-0.01, 0.01, 50_000)
        numpy_d = haversine_array(np.zeros(to_lat.size), np.zeros(to_lat.size), to_lat, to_lon)
        libm_d = np.array([haversine(0.0, 0.0, a, b) for a, b in zip(to_lat, to_lon)])
        pick = np.nonzero((numpy_d != libm_d) & (libm_d >= 100.0))[0][:300]
        lats = np.column_stack([np.zeros(pick.size), to_lat[pick]]).ravel()
        lons = np.column_stack([np.zeros(pick.size), to_lon[pick]]).ravel()
        starts = np.arange(0, lats.size, 2)
        _assert_walks_equal(lats, lons, starts, starts + 2, 100.0)

    def test_degenerate_sessions(self):
        lats = np.array([45.0, 45.0, 45.0, 45.0, 45.001])
        lons = np.array([4.0, 4.0, 4.0, 4.0, 4.0])
        # single-fix, all-stationary, and two-fix sessions
        session, out_lats, _ = _assert_walks_equal(lats, lons, [0, 1, 3], [1, 3, 5], 100.0)
        assert session.tolist() == [0, 1, 2, 2]
        assert out_lats[-1] > 45.0
        empty = _assert_walks_equal(lats, lons, [], [], 100.0)
        assert all(a.size == 0 for a in empty)

    def test_long_segment_emits_many_points_from_one_fix(self):
        lats = np.array([45.0, 45.0])
        lons = np.array([4.0, 4.2])  # ~15.7 km
        session, _, _ = _assert_walks_equal(lats, lons, [0], [2], 100.0)
        assert session.size == 1 + int(haversine(45.0, 4.0, 45.0, 4.2) // 100.0)

    @pytest.mark.parametrize("base_lat", [89.9, -89.9, 10.0])
    def test_antimeridian_and_polar_traces(self, base_lat):
        raw = make_antimeridian_trajectory()
        lats = np.asarray(raw.lats) - 10.0 + base_lat
        _assert_walks_equal(lats, np.asarray(raw.lons), [0, 20], [20, 50], 100.0)
        dataset = MobilityDataset([Trajectory("u", raw.timestamps, lats, raw.lons)])
        _assert_datasets_bitwise_equal(*_smooth_both_ways(dataset))

    def test_empty_dataset_and_drop_empty(self):
        for drop_empty in (True, False):
            lockstep, scalar = _smooth_both_ways(MobilityDataset(), drop_empty=drop_empty)
            assert len(lockstep) == len(scalar) == 0
        still = Trajectory("still", np.arange(10.0), np.full(10, 45.0), np.full(10, 4.0))
        lockstep, scalar = _smooth_both_ways(MobilityDataset([still]), drop_empty=False)
        _assert_datasets_bitwise_equal(lockstep, scalar)
        assert lockstep.user_ids == ["still"] and len(lockstep["still"]) == 0

    def test_small_world_rows_are_bitwise_identical(self, small_dataset):
        for config in (dict(epsilon_m=100.0), dict(epsilon_m=40.0, session_gap_s=None)):
            lockstep, scalar = _smooth_both_ways(small_dataset, **config)
            _assert_datasets_bitwise_equal(lockstep, scalar)

    def test_kernel_rejects_bad_epsilon_and_empty_sessions(self):
        with pytest.raises(ValueError):
            chained_resample(np.zeros(2), np.zeros(2), [0], [2], math.nan)
        with pytest.raises(ValueError):
            chained_resample(np.zeros(2), np.zeros(2), [1], [1], 100.0)

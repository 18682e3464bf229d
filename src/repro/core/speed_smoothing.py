"""Speed smoothing: hiding points of interest by enforcing a constant speed.

This module implements the first mechanism of the paper (Section III): a
published trajectory is re-sampled so that **consecutive points are separated
by a constant distance and a constant duration**, hence a constant apparent
speed.  Stops become indistinguishable from movement because the user never
appears stationary, while the *geometry* of the path is preserved almost
exactly (only linear-interpolation error along the recorded polyline).

Algorithm
---------
Given a raw recording session and a target spatial spacing ``epsilon_m``:

1. Walk through the raw fixes in order, keeping track of the *last emitted*
   position.  Each time the straight-line distance from the last emitted
   position to the current raw fix reaches ``epsilon_m``, interpolate a new
   position exactly ``epsilon_m`` meters away (on the segment toward the
   current fix) and emit it.  Consecutive emitted points are therefore exactly
   ``epsilon_m`` apart.  Crucially, the spacing is *chained*: GPS jitter while
   the user is stopped wanders inside a circle much smaller than
   ``epsilon_m`` and never gets far enough from the last emitted point to
   produce one, so the dozens of fixes recorded inside a POI collapse to (at
   most) a single published point — this is what hides POIs.
2. Re-assign timestamps uniformly between the departure time of the session
   and its arrival time, so that both the inter-point distance *and* the
   inter-point duration are constant.
3. Optionally drop the first ``trim_start_m`` / last ``trim_end_m`` meters of
   emitted points.  The extremities of a trace are usually POIs themselves
   (the trip starts at home and ends at work); removing a short prefix and
   suffix hides them, as done by the authors' follow-up implementation.

Trajectories are processed one recording session at a time (sessions are
delimited by sampling gaps longer than ``session_gap_s``), because the
constant speed is only meaningful over a continuously recorded period: mixing
an unrecorded night into the duration would drive the apparent speed to zero.
A session whose trimmed walk keeps fewer than two points is suppressed.

The result is returned as a new :class:`~repro.core.trajectory.Trajectory`
(or dataset); raw data is never modified.

Implementation
--------------
:meth:`SpeedSmoother.smooth_dataset` is one pass over the dataset's columnar
view (``MobilityDataset.columnar()``): session bounds come from the user
offsets plus ``np.diff(timestamps) > session_gap_s``, the walk produces one
flat ``(session, lat, lon)`` emission array for every session at once, and
trimming, suppression and the uniform timestamps are array operations over
it.  The timestamps reproduce ``np.linspace`` bit for bit (``k * step + t0``,
the last one set to ``t1``), and the result is one
:meth:`~repro.core.trajectory.MobilityDataset.from_columnar` dataset.
:meth:`SpeedSmoother.smooth` is the same pass on a one-user dataset.

The walk itself has two implementations that emit identical arrays:

* :func:`~repro.geo.kernels.chained_resample`, the *lockstep* kernel, which
  advances every session's walker together (one walk step per numpy
  iteration over all sessions) and skips GPS jitter along the cumulative
  path.  Its emit decisions near ``epsilon_m`` and its interpolation
  fractions use distances bitwise equal to the scalar libm
  :func:`~repro.geo.distance.haversine`;
* :func:`_chained_resample_reference`, the scalar walk, session by session
  and fix by fix.  It is the oracle the kernel is tested against, and it is
  faster on a handful of sessions, where the kernel's fixed per-iteration
  cost dominates.

``smooth_dataset`` picks the walk from the number of sessions to walk
(:data:`LOCKSTEP_MIN_SESSIONS`, a measured crossover, not an option): a
single trajectory or a tiny world takes the scalar walk, every evaluation
world (hundreds of sessions) takes the kernel.

A deliberately *naive* variant (:func:`smooth_trajectory_naive`) that
re-samples by point index instead of chained distance is provided as an
ablation baseline: it demonstrates why the distance-based walk is required
(index resampling keeps the points clustered inside POIs and does not hide
them).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..geo.distance import haversine
from ..geo.geometry import interpolate_position
from ..geo.kernels import ColumnarTraces, chained_resample
from .trajectory import MobilityDataset, Trajectory

__all__ = [
    "SpeedSmoothingConfig",
    "SpeedSmoother",
    "smooth_trajectory",
    "smooth_trajectory_naive",
    "smooth_dataset",
]

#: Fewest walked sessions for which :meth:`SpeedSmoother.smooth_dataset` uses
#: the lockstep kernel instead of the scalar walk.  A lockstep iteration costs
#: ~50 us of numpy calls however few lanes are active, so the scalar walk wins
#: on a handful of sessions.  Measured on users of the medium standard world
#: (2-vCPU VM, best of 15): 22 sessions 7.3 ms lockstep vs 4.7 ms scalar, 44
#: sessions 9.1 vs 9.2 ms, 74 sessions 14.6 vs 16.6 ms, 139 sessions 19.6 vs
#: 34.5 ms.  Both walks emit identical arrays, so this only moves time.
LOCKSTEP_MIN_SESSIONS = 48

#: Smallest accepted ``epsilon_m``.  The walk emits about path length / ε
#: points, so a vanishing ε (say 1e-300 m) exhausts memory; below a metre ε
#: only resamples GPS noise anyway.
MIN_EPSILON_M = 1.0


@dataclass(frozen=True)
class SpeedSmoothingConfig:
    """Parameters of the constant-speed transformation.

    Attributes
    ----------
    epsilon_m:
        Target spacing in meters between consecutive published points.  This
        is the privacy/utility knob: larger values hide POIs more aggressively
        (any stop shorter than the time needed to cover ``epsilon_m`` at the
        trace's average speed is invisible) but publish fewer points.  Must
        be at least :data:`MIN_EPSILON_M` (1 m).
    trim_start_m / trim_end_m:
        Length of path removed at the beginning / end of the trace before
        resampling, to hide the departure and arrival POIs.  Defaults to 0
        (publish the full path).
    min_points:
        Traces with fewer raw fixes than this are considered too short to be
        protected and are dropped (an empty trajectory is returned).
    session_gap_s:
        Recording sessions are smoothed independently: whenever the gap
        between two consecutive raw fixes exceeds this value, the trace is
        split and each piece gets its own constant speed.  This mirrors how
        the mechanism is applied to real datasets, where each GPS recording
        session (a GeoLife PLT file, a trip) is one trace.  Smoothing a
        multi-day history as a single trace would mix long unrecorded periods
        into the duration and drive the apparent speed toward zero.  Set to
        ``None`` to smooth the whole trajectory as one piece.
    """

    epsilon_m: float = 100.0
    trim_start_m: float = 0.0
    trim_end_m: float = 0.0
    min_points: int = 2
    session_gap_s: Optional[float] = 1800.0

    def __post_init__(self) -> None:
        # NaN passes every ordered comparison's negation, so finiteness is
        # checked explicitly: a NaN epsilon would publish nothing, a NaN gap
        # would silently disable session splitting.
        if not (math.isfinite(self.epsilon_m) and self.epsilon_m >= MIN_EPSILON_M):
            raise ValueError(
                f"epsilon_m must be finite and at least {MIN_EPSILON_M} m, got {self.epsilon_m}"
            )
        if not all(math.isfinite(t) and t >= 0.0 for t in (self.trim_start_m, self.trim_end_m)):
            raise ValueError(
                f"trim distances must be non-negative and finite, got "
                f"{self.trim_start_m}, {self.trim_end_m}"
            )
        if self.min_points < 2:
            raise ValueError(f"min_points must be at least 2, got {self.min_points}")
        if self.session_gap_s is not None and not (
            math.isfinite(self.session_gap_s) and self.session_gap_s > 0.0
        ):
            raise ValueError(
                f"session_gap_s must be positive and finite, or None, got {self.session_gap_s}"
            )


class SpeedSmoother:
    """Applies the constant-speed transformation to trajectories and datasets."""

    def __init__(self, config: Optional[SpeedSmoothingConfig] = None) -> None:
        self.config = config or SpeedSmoothingConfig()

    # -- single trajectory ---------------------------------------------------

    def smooth(self, trajectory: Trajectory) -> Trajectory:
        """Return the constant-speed version of ``trajectory``.

        The trajectory is first split into recording sessions at sampling gaps
        larger than ``session_gap_s`` (see :class:`SpeedSmoothingConfig`);
        each session is smoothed independently and the results are
        concatenated.  Within each session, the output satisfies, up to
        floating point error:

        * consecutive points are exactly ``epsilon_m`` meters apart
          (straight-line distance);
        * consecutive points are separated by a constant duration;
        * the first published timestamp equals the raw departure time and the
          last published timestamp equals the raw arrival time;
        * every published position lies on or between recorded positions (the
          walk interpolates on chords of the recorded path), so the spatial
          error stays below the raw sampling geometry.

        Sessions shorter than ``min_points`` fixes, or whose path is shorter
        than one ``epsilon_m`` step after trimming, are suppressed entirely:
        they cannot be protected (publishing one or two points of a stationary
        user would reveal a POI directly).  A trajectory whose sessions are
        all suppressed yields an empty trajectory.
        """
        published = self.smooth_dataset(MobilityDataset([trajectory]), drop_empty=False)
        return published[trajectory.user_id]

    # -- whole dataset ---------------------------------------------------------

    def smooth_dataset(self, dataset: MobilityDataset, drop_empty: bool = True) -> MobilityDataset:
        """Apply :meth:`smooth` to every user of ``dataset``, in one columnar pass.

        When ``drop_empty`` is true (the default), users whose protected
        trajectory ends up empty are removed from the published dataset, which
        matches the publication semantics of the paper (a record that cannot
        be protected is withheld rather than released raw).
        """
        cfg = self.config
        columnar = dataset.columnar()
        ts = columnar.timestamps
        n = ts.size

        # Sessions: every user's first fix, plus every fix after a long gap.
        is_start = np.zeros(n, dtype=bool)
        is_start[columnar.offsets[:-1][np.diff(columnar.offsets) > 0]] = True
        if cfg.session_gap_s is not None and n >= 2:
            is_start[1:] |= np.diff(ts) > cfg.session_gap_s
        starts = np.nonzero(is_start)[0]
        ends = np.append(starts[1:], n)
        walked = ends - starts >= cfg.min_points
        starts, ends = starts[walked], ends[walked]

        walk = (
            chained_resample
            if starts.size >= LOCKSTEP_MIN_SESSIONS
            else _chained_resample_reference
        )
        session, lats, lons = walk(columnar.lats, columnar.lons, starts, ends, cfg.epsilon_m)

        # Drop the prefix / suffix hiding the departure and arrival POIs; a
        # session left with fewer than two points is spatially too small to
        # hide anything (publishing it would publish the POI itself).
        # (Capped at the emission count: any larger drop suppresses the same.)
        drop_start = min(math.ceil(cfg.trim_start_m / cfg.epsilon_m), session.size)
        drop_end = min(math.ceil(cfg.trim_end_m / cfg.epsilon_m), session.size)
        emitted = np.bincount(session, minlength=starts.size)
        kept = emitted - drop_start - drop_end
        rank = np.arange(session.size) - (np.cumsum(emitted) - emitted)[session] - drop_start
        keep = (rank >= 0) & (rank < kept[session]) & (kept[session] >= 2)
        session, rank, lats, lons = session[keep], rank[keep], lats[keep], lons[keep]

        # Uniform timestamps from departure to arrival, exactly as
        # np.linspace(t_start, t_end, num=kept) computes them.
        t_start = ts[starts][session]
        t_end = ts[ends - 1][session]
        div = kept[session] - 1
        delta = t_end - t_start
        step = delta / div
        times = np.where(step == 0.0, rank / div * delta, rank * step) + t_start
        times = np.where(rank == div, t_end, times)

        # One trajectory per user over the flat result (sessions are in user
        # and time order, so each user's points are one contiguous run).
        user_index = columnar.user_index[starts][session]
        counts = np.bincount(user_index, minlength=columnar.n_users)
        users = np.nonzero(counts)[0] if drop_empty else np.arange(columnar.n_users)
        offsets = np.concatenate([[0], np.cumsum(counts[users])])
        return MobilityDataset.from_columnar(
            ColumnarTraces([columnar.user_ids[u] for u in users], times, lats, lons, offsets)
        )


def _chained_resample_reference(
    lats: np.ndarray,
    lons: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    epsilon_m: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scalar oracle of :func:`~repro.geo.kernels.chained_resample`, session by session.

    Starting from a session's first raw fix, a new position is emitted every
    time the straight-line distance from the last emitted position to the raw
    fix being examined reaches ``epsilon_m``; the new position is placed by
    linear interpolation so that the spacing is exact, and the walk resumes
    from it (several positions can be emitted inside one long raw segment).
    Raw fixes that never get ``epsilon_m`` away from the last emitted
    position (GPS jitter inside a POI) produce nothing.  Faster than the
    lockstep kernel on a handful of sessions (see ``LOCKSTEP_MIN_SESSIONS``).
    """
    out_session: List[int] = []
    out_lats: List[float] = []
    out_lons: List[float] = []
    raw_lats = np.asarray(lats, dtype=float)
    raw_lons = np.asarray(lons, dtype=float)
    for index, (lo, hi) in enumerate(zip(np.asarray(starts).tolist(), np.asarray(ends).tolist())):
        current_lat = float(raw_lats[lo])
        current_lon = float(raw_lons[lo])
        out_session.append(index)
        out_lats.append(current_lat)
        out_lons.append(current_lon)
        for lat, lon in zip(raw_lats[lo + 1 : hi].tolist(), raw_lons[lo + 1 : hi].tolist()):
            distance = haversine(current_lat, current_lon, lat, lon)
            while distance >= epsilon_m:
                current_lat, current_lon = interpolate_position(
                    current_lat, current_lon, lat, lon, epsilon_m / distance
                )
                out_session.append(index)
                out_lats.append(current_lat)
                out_lons.append(current_lon)
                distance = haversine(current_lat, current_lon, lat, lon)
    return (
        np.asarray(out_session, dtype=np.int64),
        np.asarray(out_lats, dtype=float),
        np.asarray(out_lons, dtype=float),
    )


def smooth_trajectory(
    trajectory: Trajectory, epsilon_m: float = 100.0, **kwargs
) -> Trajectory:
    """Convenience function: smooth one trajectory with spacing ``epsilon_m``."""
    return SpeedSmoother(SpeedSmoothingConfig(epsilon_m=epsilon_m, **kwargs)).smooth(trajectory)


def smooth_dataset(
    dataset: MobilityDataset, epsilon_m: float = 100.0, **kwargs
) -> MobilityDataset:
    """Convenience function: smooth every trajectory of ``dataset``."""
    smoother = SpeedSmoother(SpeedSmoothingConfig(epsilon_m=epsilon_m, **kwargs))
    return smoother.smooth_dataset(dataset)


def smooth_trajectory_naive(trajectory: Trajectory, keep_every: int = 10) -> Trajectory:
    """Ablation baseline: re-sample by *index* instead of arc-length.

    Keeps one raw fix out of ``keep_every`` and spreads timestamps uniformly.
    Because raw fixes are denser inside POIs (the user lingers there), the
    kept points remain clustered around POIs and the stop structure leaks
    through the uniform timestamps — exactly the failure mode the arc-length
    version avoids.  Used by the E2 ablation benchmark.
    """
    if keep_every < 1:
        raise ValueError(f"keep_every must be >= 1, got {keep_every}")
    if len(trajectory) < 2:
        return Trajectory.empty(trajectory.user_id)
    idx = np.arange(0, len(trajectory), keep_every)
    if idx[-1] != len(trajectory) - 1:
        idx = np.concatenate([idx, [len(trajectory) - 1]])
    lats = np.asarray(trajectory.lats)[idx]
    lons = np.asarray(trajectory.lons)[idx]
    t_start = float(trajectory.timestamps[0])
    t_end = float(trajectory.timestamps[-1])
    times = np.linspace(t_start, t_end, num=idx.size)
    return Trajectory(trajectory.user_id, times, lats, lons)

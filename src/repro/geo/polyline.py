"""Arc-length parameterisation and resampling of geographic polylines.

The central operation of the paper's first mechanism (speed smoothing) is to
walk along a recorded trajectory and emit points at *exactly regular spatial
intervals*.  This module provides that machinery independently of any privacy
logic so that it can be tested and reused in isolation:

* :func:`cumulative_distances` — arc-length of each vertex along the polyline;
* :func:`resample_by_distance` — emit interpolated positions every ``step``
  meters along the polyline;
* :func:`position_at_distance` — the point lying at a given arc-length;
* :func:`path_length` — total length of the polyline in meters.

All functions operate on latitude/longitude arrays in decimal degrees and use
the haversine metric for segment lengths, with linear interpolation within a
segment (accurate for GPS-scale segment lengths).  Longitude is interpolated
the short way round, so a segment crossing the antimeridian stays short.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from numpy.typing import ArrayLike

from .distance import haversine_array

__all__ = [
    "cumulative_distances",
    "path_length",
    "position_at_distance",
    "resample_by_distance",
    "resample_at_distances",
]


def _interpolate_lons(lon1: ArrayLike, lon2: ArrayLike, f: ArrayLike) -> np.ndarray:
    """``lon1 + f * (lon2 - lon1)`` over the shorter arc, wrapped into [-180, 180]."""
    dlon = np.subtract(lon2, lon1)
    dlon = np.where(dlon > 180.0, dlon - 360.0, np.where(dlon < -180.0, dlon + 360.0, dlon))
    lon = np.add(lon1, np.multiply(f, dlon))
    return np.where(lon > 180.0, lon - 360.0, np.where(lon < -180.0, lon + 360.0, lon))


def cumulative_distances(lats: np.ndarray, lons: np.ndarray) -> np.ndarray:
    """Arc-length in meters of each vertex, measured from the first vertex.

    The returned array has the same length as the input; its first element is
    0 and it is non-decreasing.
    """
    lats = np.asarray(lats, dtype=float)
    lons = np.asarray(lons, dtype=float)
    if lats.size == 0:
        return np.zeros(0, dtype=float)
    if lats.size == 1:
        return np.zeros(1, dtype=float)
    seg = haversine_array(lats[:-1], lons[:-1], lats[1:], lons[1:])
    return np.concatenate([[0.0], np.cumsum(seg)])


def path_length(lats: np.ndarray, lons: np.ndarray) -> float:
    """Total length of the polyline in meters (0 for fewer than two vertices)."""
    cum = cumulative_distances(lats, lons)
    return float(cum[-1]) if cum.size else 0.0


def position_at_distance(
    lats: np.ndarray, lons: np.ndarray, distance_m: float, cumdist: np.ndarray | None = None
) -> Tuple[float, float]:
    """Point lying ``distance_m`` meters along the polyline from its start.

    Distances below 0 clamp to the first vertex and distances beyond the total
    length clamp to the last vertex.  ``cumdist`` may be passed to reuse a
    precomputed :func:`cumulative_distances` result.
    """
    lats = np.asarray(lats, dtype=float)
    lons = np.asarray(lons, dtype=float)
    if lats.size == 0:
        raise ValueError("cannot locate a position on an empty polyline")
    if lats.size == 1:
        return float(lats[0]), float(lons[0])
    if cumdist is None:
        cumdist = cumulative_distances(lats, lons)
    total = float(cumdist[-1])
    d = min(max(0.0, float(distance_m)), total)
    # Index of the segment containing arc-length d.
    idx = int(np.searchsorted(cumdist, d, side="right") - 1)
    idx = min(max(idx, 0), lats.size - 2)
    seg_len = float(cumdist[idx + 1] - cumdist[idx])
    if seg_len <= 0.0:
        return float(lats[idx]), float(lons[idx])
    f = (d - float(cumdist[idx])) / seg_len
    lat = float(lats[idx] + f * (lats[idx + 1] - lats[idx]))
    lon = float(_interpolate_lons(lons[idx], lons[idx + 1], f))
    return lat, lon


def resample_at_distances(
    lats: np.ndarray, lons: np.ndarray, distances_m: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Interpolated positions at each requested arc-length (vectorised).

    ``distances_m`` values are clamped to ``[0, path_length]``.  Returns two
    arrays ``(lats, lons)`` of the same length as ``distances_m``.
    """
    lats = np.asarray(lats, dtype=float)
    lons = np.asarray(lons, dtype=float)
    distances_m = np.asarray(distances_m, dtype=float)
    if lats.size == 0:
        raise ValueError("cannot resample an empty polyline")
    if lats.size == 1:
        return (
            np.full(distances_m.shape, float(lats[0])),
            np.full(distances_m.shape, float(lons[0])),
        )
    cumdist = cumulative_distances(lats, lons)
    total = float(cumdist[-1])
    d = np.clip(distances_m, 0.0, total)
    idx = np.searchsorted(cumdist, d, side="right") - 1
    idx = np.clip(idx, 0, lats.size - 2)
    seg_len = cumdist[idx + 1] - cumdist[idx]
    with np.errstate(divide="ignore", invalid="ignore"):
        f = np.where(seg_len > 0.0, (d - cumdist[idx]) / seg_len, 0.0)
    out_lats = lats[idx] + f * (lats[idx + 1] - lats[idx])
    out_lons = _interpolate_lons(lons[idx], lons[idx + 1], f)
    return out_lats, out_lons


def resample_by_distance(
    lats: np.ndarray, lons: np.ndarray, step_m: float, include_end: bool = True
) -> Tuple[np.ndarray, np.ndarray]:
    """Positions spaced exactly ``step_m`` meters apart along the polyline.

    The first output point coincides with the first input vertex.  When
    ``include_end`` is true the final vertex is always appended, even if the
    last regular step does not land exactly on it (the final gap is then
    shorter than ``step_m``).

    ``step_m`` must be strictly positive.  A polyline shorter than one step
    yields its first vertex (and, when requested, its last).
    """
    if step_m <= 0.0:
        raise ValueError(f"step_m must be positive, got {step_m}")
    lats = np.asarray(lats, dtype=float)
    lons = np.asarray(lons, dtype=float)
    if lats.size == 0:
        return np.zeros(0), np.zeros(0)
    total = path_length(lats, lons)
    n_steps = int(total // step_m)
    targets = np.arange(n_steps + 1, dtype=float) * step_m
    out_lats, out_lons = resample_at_distances(lats, lons, targets)
    if include_end and (targets.size == 0 or targets[-1] < total):
        out_lats = np.concatenate([out_lats, [float(lats[-1])]])
        out_lons = np.concatenate([out_lons, [float(lons[-1])]])
    return out_lats, out_lons

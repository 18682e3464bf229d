"""Planar and geographic geometry primitives.

This module provides the small geometric toolbox used across the library:
bounding boxes over geographic coordinates, point-to-segment distances, and
linear interpolation between geographic points.  Heavier polyline operations
(arc-length parameterisation, resampling) live in :mod:`repro.geo.polyline`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Tuple

import numpy as np

from .distance import haversine, meters_per_degree

__all__ = [
    "BoundingBox",
    "interpolate_position",
    "point_segment_distance_m",
    "point_to_polyline_distance_m",
]


@dataclass(frozen=True)
class BoundingBox:
    """An axis-aligned geographic bounding box (degrees).

    The box is inclusive on all sides.  ``min_lat <= max_lat`` and
    ``min_lon <= max_lon`` are enforced at construction time.
    """

    min_lat: float
    min_lon: float
    max_lat: float
    max_lon: float

    def __post_init__(self) -> None:
        if self.min_lat > self.max_lat:
            raise ValueError(f"min_lat {self.min_lat} > max_lat {self.max_lat}")
        if self.min_lon > self.max_lon:
            raise ValueError(f"min_lon {self.min_lon} > max_lon {self.max_lon}")

    @classmethod
    def from_points(cls, lats: Iterable[float], lons: Iterable[float]) -> "BoundingBox":
        """Smallest box containing every ``(lat, lon)`` pair.

        Arrays are reduced in place (no Python round trip); other iterables,
        generators included, are materialised first.
        """
        lats = np.asarray(lats if isinstance(lats, np.ndarray) else list(lats), dtype=float)
        lons = np.asarray(lons if isinstance(lons, np.ndarray) else list(lons), dtype=float)
        if lats.size == 0:
            raise ValueError("cannot build a bounding box from an empty set of points")
        return cls(float(lats.min()), float(lons.min()), float(lats.max()), float(lons.max()))

    def contains(self, lat: float, lon: float) -> bool:
        """True when the point lies inside or on the boundary of the box."""
        return self.min_lat <= lat <= self.max_lat and self.min_lon <= lon <= self.max_lon

    def expanded(self, margin_m: float) -> "BoundingBox":
        """A new box grown by ``margin_m`` meters on every side."""
        center_lat = (self.min_lat + self.max_lat) / 2.0
        lat_m, lon_m = meters_per_degree(center_lat)
        dlat = margin_m / lat_m
        dlon = margin_m / lon_m
        return BoundingBox(
            self.min_lat - dlat, self.min_lon - dlon, self.max_lat + dlat, self.max_lon + dlon
        )

    @property
    def center(self) -> Tuple[float, float]:
        """The ``(lat, lon)`` center of the box."""
        return (self.min_lat + self.max_lat) / 2.0, (self.min_lon + self.max_lon) / 2.0

    @property
    def diagonal_m(self) -> float:
        """Length in meters of the box diagonal (a scale indicator)."""
        return haversine(self.min_lat, self.min_lon, self.max_lat, self.max_lon)

    def intersects(self, other: "BoundingBox") -> bool:
        """True when the two boxes share at least one point."""
        return not (
            other.min_lat > self.max_lat
            or other.max_lat < self.min_lat
            or other.min_lon > self.max_lon
            or other.max_lon < self.min_lon
        )


def interpolate_position(
    lat1: float, lon1: float, lat2: float, lon2: float, fraction: float
) -> Tuple[float, float]:
    """Linear interpolation between two geographic points.

    ``fraction`` is clamped to ``[0, 1]``; 0 returns the first point, 1 the
    second.  Linear interpolation on coordinates is an excellent approximation
    of the geodesic for the short (metres to a few km) segments found between
    consecutive GPS fixes, and is what the speed-smoothing algorithm relies on.

    Longitude takes the short way round: a segment crossing the antimeridian
    (179.9 -> -179.9) interpolates through 180, not through 0, and the result
    is wrapped back into ``[-180, 180]``.
    """
    f = min(1.0, max(0.0, float(fraction)))
    dlon = lon2 - lon1
    if dlon > 180.0:
        dlon -= 360.0
    elif dlon < -180.0:
        dlon += 360.0
    lon = lon1 + f * dlon
    if lon > 180.0:
        lon -= 360.0
    elif lon < -180.0:
        lon += 360.0
    return lat1 + f * (lat2 - lat1), lon


def point_segment_distance_m(
    px: float, py: float, ax: float, ay: float, bx: float, by: float
) -> float:
    """Euclidean distance from point ``p`` to segment ``ab`` in a metric plane.

    All coordinates must already be expressed in meters (see
    :class:`repro.geo.projection.LocalProjection`).
    """
    abx = bx - ax
    aby = by - ay
    apx = px - ax
    apy = py - ay
    denom = abx * abx + aby * aby
    if denom <= 0.0:
        return math.hypot(apx, apy)
    t = (apx * abx + apy * aby) / denom
    t = min(1.0, max(0.0, t))
    cx = ax + t * abx
    cy = ay + t * aby
    return math.hypot(px - cx, py - cy)


def point_to_polyline_distance_m(
    px: float, py: float, xs: np.ndarray, ys: np.ndarray
) -> float:
    """Distance in meters from a point to a polyline, both in a metric plane.

    ``xs``/``ys`` are the polyline vertices.  A single-vertex polyline reduces
    to a point-to-point distance; an empty polyline raises ``ValueError``.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size == 0:
        raise ValueError("cannot compute distance to an empty polyline")
    if xs.size == 1:
        return math.hypot(px - float(xs[0]), py - float(ys[0]))
    # Vectorised point-to-segment distance over all consecutive segments.
    ax, ay = xs[:-1], ys[:-1]
    bx, by = xs[1:], ys[1:]
    abx, aby = bx - ax, by - ay
    apx, apy = px - ax, py - ay
    denom = abx * abx + aby * aby
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(denom > 0.0, (apx * abx + apy * aby) / denom, 0.0)
    t = np.clip(t, 0.0, 1.0)
    cx = ax + t * abx
    cy = ay + t * aby
    d = np.hypot(px - cx, py - cy)
    return float(d.min())

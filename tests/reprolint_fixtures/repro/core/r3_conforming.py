"""R3 fixture: a batched core path with its scalar walk kept as the oracle."""

import numpy as np

from repro.geo.distance import haversine, haversine_array


def step_lengths(trajectory):
    lats = np.asarray(trajectory.lats)
    lons = np.asarray(trajectory.lons)
    return haversine_array(lats[:-1], lons[:-1], lats[1:], lons[1:])


def _resample_reference(lats, lons, epsilon_m):
    # Name contains "reference": the scalar oracle may walk fix by fix.
    out = [(lats[0], lons[0])]
    lat0, lon0 = lats[0], lons[0]
    for lat, lon in zip(lats, lons):
        if haversine(lat0, lon0, lat, lon) >= epsilon_m:
            out.append((lat, lon))
            lat0, lon0 = lat, lon
    return out


def resample(trajectory, epsilon_m):
    # Dispatching to the oracle on small inputs keeps the public path clean.
    if len(trajectory) < 64:
        return _resample_reference(trajectory.lats, trajectory.lons, epsilon_m)
    return step_lengths(trajectory)

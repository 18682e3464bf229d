"""R3 fixture: a scalar resampling walk in the publication core."""

from repro.geo.distance import haversine


def resample(lats, lons, epsilon_m):
    out = [(lats[0], lons[0])]
    lat0, lon0 = lats[0], lons[0]
    for lat, lon in zip(lats, lons):
        if haversine(lat0, lon0, lat, lon) >= epsilon_m:  # scalar distance in a loop
            out.append((lat, lon))
            lat0, lon0 = lat, lon
    return out


def smooth(trajectory, epsilon_m):
    return [lat for lat in trajectory.lats if lat]  # per-point comprehension

"""On-disk world artifacts: memory-mapped columnar mobility datasets.

A *world store* is a directory holding one dataset's flattened columnar
arrays as raw little-endian binary columns plus a small JSON header::

    world.json        format/version, n_users, n_points, time_span, checksum
    timestamps.f64    POSIX seconds, float64, one entry per fix
    lats.f64          latitudes in decimal degrees, float64
    lons.f64          longitudes in decimal degrees, float64
    offsets.i64       per-user half-open slice bounds, int64, n_users + 1
    users.txt         user identifiers, one per line, in offset order

The layout is exactly the :class:`~repro.geo.kernels.ColumnarTraces`
contract — points of user ``k`` occupy ``[offsets[k], offsets[k + 1])`` in
chronological order — so an opened store *is* the columnar view, backed by
``numpy.memmap`` instead of RAM.  Every consumer of one artifact (engine
workers under fork or spawn, concurrent benchmark runs) shares the same OS
page-cache pages; nothing is pickled or rebuilt per process.

Two properties make stores cheap to plumb through the evaluation engine:

* the world fingerprint the engine keys its result cache by is computed once
  at write time and stored in the header, so opening a store never re-hashes
  its points (the checksum arithmetic is bit-identical to
  :meth:`~repro.core.trajectory.MobilityDataset.content_fingerprint`);
* :class:`StoreBackedDataset` pickles as its path — a worker receiving an
  engine payload re-opens the memmap instead of receiving the arrays.

:class:`WorldStoreWriter` appends one user at a time, which bounds writer
memory by the largest single trajectory: both the chunked synthetic
generator (:func:`repro.datagen.mobility.generate_world_store`) and the
streaming GeoLife ingest (:func:`repro.io.geolife.ingest_geolife_store`)
stream users straight to disk without materialising the full world.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple, cast

import numpy as np

from ..core.trajectory import MobilityDataset, Trajectory
from ..geo.kernels import ColumnarTraces

__all__ = [
    "WorldStoreError",
    "WorldStoreWriter",
    "WorldStore",
    "StoreBackedDataset",
]

FORMAT_NAME = "repro-world-store"
FORMAT_VERSION = 1

_HEADER_FILE = "world.json"
_OFFSETS_FILE = "offsets.i64"
_USERS_FILE = "users.txt"
_COLUMN_FILES = {
    "timestamps": "timestamps.f64",
    "lats": "lats.f64",
    "lons": "lons.f64",
}

#: The fingerprint tuple shape shared with ``MobilityDataset.content_fingerprint``.
Fingerprint = Tuple[int, int, Tuple[float, float], int]


class WorldStoreError(RuntimeError):
    """Raised on malformed stores, write conflicts and misuse of the writer."""


def _validate_shard(shard: Optional[Tuple[int, int]]) -> Optional[Tuple[int, int]]:
    if shard is None:
        return None
    k, n = int(shard[0]), int(shard[1])
    if n < 1 or not 0 <= k < n:
        raise WorldStoreError(f"shard must satisfy 0 <= k < n, got ({k}, {n})")
    return (k, n)


def _load_dataset(
    path: str, shard: Optional[Tuple[int, int]] = None
) -> "StoreBackedDataset":
    """Unpickle target of :class:`StoreBackedDataset`: re-open the memmap."""
    return WorldStore.open(path).dataset(shard=shard)


class WorldStoreWriter:
    """Streaming store writer: append one user at a time, bounded memory.

    Users must be appended in the dataset's canonical order with unique
    identifiers; :meth:`finalize` seals the artifact — it writes the offsets,
    user list and header (including the content fingerprint, computed once
    here from the memmapped columns) and returns the opened
    :class:`WorldStore`.  A writer that is never finalized leaves no valid
    store behind (the header is written last).
    """

    def __init__(self, path: str | Path, overwrite: bool = False) -> None:
        self.path = Path(path)
        if self.path.exists():
            if not self.path.is_dir():
                raise WorldStoreError(f"store path is not a directory: {self.path}")
            contents = [p.name for p in self.path.iterdir()]
            if contents and not overwrite:
                raise WorldStoreError(
                    f"store already exists: {self.path} (pass overwrite=True)"
                )
            if contents and (self.path / _HEADER_FILE).name not in contents:
                raise WorldStoreError(
                    f"refusing to overwrite non-store directory: {self.path}"
                )
            for name in (_HEADER_FILE, _OFFSETS_FILE, _USERS_FILE, *_COLUMN_FILES.values()):
                (self.path / name).unlink(missing_ok=True)
        self.path.mkdir(parents=True, exist_ok=True)
        self._handles = {
            column: open(self.path / filename, "wb")
            for column, filename in _COLUMN_FILES.items()
        }
        self._user_ids: List[str] = []
        self._seen: set[str] = set()
        self._offsets: List[int] = [0]
        self._n_points = 0
        self._t_min = float("inf")
        self._t_max = float("-inf")
        self._finalized = False

    def append(self, trajectory: Trajectory) -> None:
        """Append one user's validated, time-sorted trajectory."""
        if self._finalized:
            raise WorldStoreError("writer is already finalized")
        user_id = trajectory.user_id
        if "\n" in user_id or "\r" in user_id:
            raise WorldStoreError(f"user id contains a newline: {user_id!r}")
        if user_id in self._seen:
            raise WorldStoreError(f"duplicate user id {user_id!r} in store")
        self._seen.add(user_id)
        ts = np.ascontiguousarray(trajectory.timestamps, dtype="<f8")
        self._handles["timestamps"].write(ts.tobytes())
        self._handles["lats"].write(
            np.ascontiguousarray(trajectory.lats, dtype="<f8").tobytes()
        )
        self._handles["lons"].write(
            np.ascontiguousarray(trajectory.lons, dtype="<f8").tobytes()
        )
        self._user_ids.append(user_id)
        self._n_points += int(ts.size)
        self._offsets.append(self._n_points)
        if ts.size:
            self._t_min = min(self._t_min, float(ts[0]))
            self._t_max = max(self._t_max, float(ts[-1]))

    def finalize(self) -> "WorldStore":
        """Seal the store: offsets, user list, fingerprinted header."""
        if self._finalized:
            raise WorldStoreError("writer is already finalized")
        self._finalized = True
        for handle in self._handles.values():
            handle.close()
        (self.path / _OFFSETS_FILE).write_bytes(
            np.asarray(self._offsets, dtype="<i8").tobytes()
        )
        with open(self.path / _USERS_FILE, "w", encoding="utf-8") as users:
            users.writelines(f"{user_id}\n" for user_id in self._user_ids)

        # The engine's cache-key fingerprint, computed once at write time with
        # the exact arithmetic of MobilityDataset.content_fingerprint (strided
        # CRC over the coordinate columns); empty stores have no time span.
        time_span: Optional[List[float]] = None
        checksum: Optional[int] = None
        if self._n_points:
            lats = np.memmap(self.path / _COLUMN_FILES["lats"], dtype="<f8", mode="r")
            lons = np.memmap(self.path / _COLUMN_FILES["lons"], dtype="<f8", mode="r")
            stride = max(1, lats.size // 1024)
            crc = zlib.crc32(lats[::stride].tobytes())
            crc = zlib.crc32(lons[::stride].tobytes(), crc)
            checksum = int(crc)
            time_span = [self._t_min, self._t_max]
            del lats, lons
        header = {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "n_users": len(self._user_ids),
            "n_points": self._n_points,
            "time_span": time_span,
            "checksum": checksum,
        }
        (self.path / _HEADER_FILE).write_text(
            json.dumps(header, indent=2) + "\n", encoding="utf-8"
        )
        return WorldStore.open(self.path)

    def close(self) -> None:
        """Release the column handles without sealing the store.

        Idempotent, and a no-op after :meth:`finalize` (which already closed
        the handles).  Abandoning an unfinalized writer leaves no valid
        store behind — the header is only ever written by ``finalize`` — but
        the open column handles must still be released on failure paths.
        """
        if self._finalized:
            return
        for handle in self._handles.values():
            handle.close()

    def __enter__(self) -> "WorldStoreWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class WorldStore:
    """An opened world artifact: memmapped columns plus header metadata.

    The coordinate and timestamp columns stay on disk (``numpy.memmap``,
    read-only); only the offsets, user list and the
    :class:`~repro.geo.kernels.ColumnarTraces` ``user_index`` (8 bytes per
    point, built lazily) live in RAM.
    """

    def __init__(
        self,
        path: Path,
        header: Dict[str, object],
        user_ids: List[str],
        offsets: np.ndarray,
        timestamps: np.ndarray,
        lats: np.ndarray,
        lons: np.ndarray,
    ) -> None:
        self.path = path
        self.header = header
        self.user_ids = user_ids
        self.offsets = offsets
        self._timestamps = timestamps
        self._lats = lats
        self._lons = lons
        self._columnar: Optional[ColumnarTraces] = None

    @classmethod
    def open(cls, path: str | Path) -> "WorldStore":
        """Open an existing store, validating its header against the files."""
        path = Path(path)
        header_path = path / _HEADER_FILE
        if not header_path.is_file():
            raise WorldStoreError(f"not a world store (no {_HEADER_FILE}): {path}")
        header = json.loads(header_path.read_text(encoding="utf-8"))
        if header.get("format") != FORMAT_NAME:
            raise WorldStoreError(f"unrecognized store format in {header_path}")
        if int(header.get("version", -1)) != FORMAT_VERSION:
            raise WorldStoreError(
                f"unsupported store version {header.get('version')!r} "
                f"(this build reads version {FORMAT_VERSION})"
            )
        n_users = int(cast(int, header["n_users"]))
        n_points = int(cast(int, header["n_points"]))
        users_text = (path / _USERS_FILE).read_text(encoding="utf-8")
        user_ids = users_text.splitlines()
        offsets = np.fromfile(path / _OFFSETS_FILE, dtype="<i8").astype(np.int64)
        if len(user_ids) != n_users or offsets.size != n_users + 1:
            raise WorldStoreError(f"store user/offset tables are inconsistent: {path}")
        if (n_points and int(offsets[-1]) != n_points) or (offsets.size and offsets[0]):
            raise WorldStoreError(f"store offsets do not match the header: {path}")
        columns: Dict[str, np.ndarray] = {}
        for column, filename in _COLUMN_FILES.items():
            if n_points == 0:
                columns[column] = np.zeros(0)
                continue
            data = np.memmap(path / filename, dtype="<f8", mode="r")
            if data.size != n_points:
                raise WorldStoreError(
                    f"column {filename} holds {data.size} points, header says {n_points}"
                )
            columns[column] = data
        return cls(
            path=path,
            header=header,
            user_ids=user_ids,
            offsets=offsets,
            timestamps=columns["timestamps"],
            lats=columns["lats"],
            lons=columns["lons"],
        )

    @classmethod
    def write(
        cls,
        trajectories: Iterable[Trajectory],
        path: str | Path,
        overwrite: bool = False,
    ) -> "WorldStore":
        """Stream an iterable of trajectories (e.g. a dataset) into a store."""
        writer = WorldStoreWriter(path, overwrite=overwrite)
        try:
            for trajectory in trajectories:
                writer.append(trajectory)
            return writer.finalize()
        finally:
            writer.close()

    # -- shape / metadata -----------------------------------------------------

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    @property
    def n_points(self) -> int:
        return int(cast(int, self.header["n_points"]))

    @property
    def fingerprint(self) -> Optional[Fingerprint]:
        """The write-time content fingerprint (None for empty stores)."""
        time_span = self.header.get("time_span")
        checksum = self.header.get("checksum")
        if time_span is None or checksum is None:
            return None
        span = cast(List[float], time_span)
        return (
            self.n_users,
            self.n_points,
            (float(span[0]), float(span[1])),
            int(cast(int, checksum)),
        )

    def __repr__(self) -> str:
        return f"WorldStore(path={str(self.path)!r}, users={self.n_users}, points={self.n_points})"

    # -- views ----------------------------------------------------------------

    def columnar(self) -> ColumnarTraces:
        """The whole store as a memmap-backed columnar view (cached)."""
        if self._columnar is None:
            self._columnar = ColumnarTraces(
                self.user_ids, self._timestamps, self._lats, self._lons, self.offsets
            )
        return self._columnar

    def dataset(self, shard: Optional[Tuple[int, int]] = None) -> "StoreBackedDataset":
        """A dataset over the store, optionally restricted to shard ``(k, n)``.

        Shard ``(k, n)`` keeps users ``k, k + n, k + 2n, ...`` of the store
        order — the ``world.shard(k, n)`` protocol.  Per-user trajectories
        remain zero-copy memmap views either way; only a *sharded* dataset's
        flattened ``columnar()`` view is rebuilt in RAM (bounded by the
        shard's own points).
        """
        return StoreBackedDataset(self, shard=shard)


class _LazyTrajectories(Mapping[str, Trajectory]):
    """User-id mapping that materialises per-user memmap views on first access."""

    def __init__(self, store: WorldStore, indices: Iterable[int]) -> None:
        self._store = store
        self._index = {store.user_ids[k]: k for k in indices}
        self._cache: Dict[str, Trajectory] = {}

    def __getitem__(self, user_id: str) -> Trajectory:
        trajectory = self._cache.get(user_id)
        if trajectory is None:
            k = self._index[user_id]
            columnar = self._store.columnar()
            span = columnar.user_slice(k)
            trajectory = Trajectory.from_sorted(
                user_id,
                columnar.timestamps[span],
                columnar.lats[span],
                columnar.lons[span],
            )
            self._cache[user_id] = trajectory
        return trajectory

    def __iter__(self) -> Iterator[str]:
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)


class StoreBackedDataset(MobilityDataset):
    """A :class:`MobilityDataset` whose points live in a memmapped store.

    Trajectories are zero-copy views into the store's columns, built lazily
    per user; ``columnar()`` returns the memmap-backed view directly (no
    concatenation) and ``content_fingerprint()`` comes pre-seeded from the
    artifact header.  Pickling ships only ``(path, shard)``: engine workers
    re-open the memmap and share OS page-cache pages instead of receiving
    the arrays — datasets of any size cross process boundaries in a few
    hundred bytes.

    Transformation helpers (``subset``, ``map_trajectories``, ...) return
    plain in-memory datasets, exactly like every other dataset.
    """

    __slots__ = ("_store", "_shard")

    def __init__(
        self, store: WorldStore, shard: Optional[Tuple[int, int]] = None
    ) -> None:
        self._store = store
        self._shard = _validate_shard(shard)
        if self._shard is None:
            indices: Iterable[int] = range(store.n_users)
        else:
            indices = range(self._shard[0], store.n_users, self._shard[1])
        self._trajectories = cast(
            Dict[str, Trajectory], _LazyTrajectories(store, indices)
        )
        self._columnar = store.columnar() if self._shard is None else None
        self._fingerprint = store.fingerprint if self._shard is None else None
        self._nearest_index = None

    @property
    def n_points(self) -> int:
        if self._shard is None:
            return self._store.n_points
        k, n = self._shard
        ks = np.arange(k, self._store.n_users, n)
        offsets = self._store.offsets
        return int((offsets[ks + 1] - offsets[ks]).sum())

    def __reduce__(self):
        return (_load_dataset, (str(self._store.path), self._shard))

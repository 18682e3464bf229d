"""The benchmark's three workloads: set-up, one timed pass, and row checks.

Each workload is a closed loop in one process: a pass starts only after the
previous one finished.  A pass gets fresh inputs from :meth:`pass_setup`
(untimed, reported as set-up time), so process-level memo caches keyed on
world objects never carry work from one pass into the next.

* ``paper-standard`` — E1 (stay-point), E2, E3 and E6 through the
  ``repro.experiments.runner`` entry points on ``standard`` worlds.
* ``paper-crossing`` — E4, E5 and E8 on ``crossing`` worlds.
* ``fleet-resume`` — a five-seed sweep of the default mechanism suite on a
  ``store:`` world, resumed from a sqlite cell cache that already holds four
  of the seeds, with the remaining cells run on a ``work-queue`` backend whose
  workers write their rows straight into the cache.

The paper workloads pass a fresh ``InMemoryCellCache()`` *object* to every
runner call: the runners memoize engines built for spec-string caches, so
``cell_cache="memory"`` would serve a second pass from the first.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import struct
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.datagen.city import CityConfig
from repro.datagen.mobility import SimulationConfig, generate_world_store
from repro.datagen.noise import GpsNoiseConfig
from repro.datagen.schedule import ScheduleConfig
from repro.experiments import runner
from repro.experiments.cache import InMemoryCellCache, SqliteCellCache
from repro.experiments.engine import EvaluationEngine, ExperimentSpec
from repro.experiments.workloads import WORKLOAD_SCALES
from repro.experiments.worlds import make_world

from spans import Tracer, fold

#: The seed today's benches use for every world.
DEFAULT_SEED = 42

#: ``WorkQueueBackend.last_stats`` counters reported as ``backend.<name>``.
BACKEND_STATS = (
    "backend.task_batches", "backend.workers_seen", "backend.rows_shipped",
    "backend.requeues", "backend.evictions",
)


def mechanism_seed_base(seed: int) -> int:
    """The mechanism seed base of a workload seed.

    ``seed XOR 42`` maps the default seed to mechanism seed 0, so the default
    run reproduces today's benches exactly (worlds at 42, mechanisms at 0).
    """
    return seed ^ DEFAULT_SEED


# ---------------------------------------------------------------------------
# Row encoding
# ---------------------------------------------------------------------------


def _canonical(value: Any, exact: bool) -> Any:
    if isinstance(value, (list, tuple)):
        return [_canonical(item, exact) for item in value]
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        value = value.item()  # numpy scalars
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return f"i{value}"
    if isinstance(value, float):
        # Exact: the IEEE bits.  Digest: 9 significant digits, so the stored
        # digests survive a last-bit difference in a transcendental function
        # on another CPU's SIMD path.
        return struct.pack("<d", value).hex() if exact else f"f{value:.9g}"
    raise TypeError(f"unexpected row value {value!r} ({type(value).__name__})")


def row_digest(row: Dict[str, Any], exact: bool = False) -> str:
    """A short hash of one row's columns (in order) and values."""
    payload = json.dumps([[key, _canonical(value, exact)] for key, value in row.items()])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def count_mismatches(reference: Sequence[str], candidate: Sequence[str]) -> int:
    """Cells that differ between two digest lists, missing cells included."""
    differing = sum(a != b for a, b in zip(reference, candidate))
    return differing + abs(len(reference) - len(candidate))


# ---------------------------------------------------------------------------
# Paper workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Experiment:
    """One runner entry point and the row schema it must return."""

    runner: str
    seed_arg: str  # how the runner takes the mechanism seed: "seeds", "seed" or ""
    n_rows: int
    columns: Tuple[str, ...]


EXPERIMENTS: Dict[str, Experiment] = {
    "e1": Experiment(
        "run_poi_retrieval", "seeds", 8,
        ("mechanism", "attack", "precision", "recall", "f_score", "n_true_pois", "n_extracted"),
    ),
    "e2": Experiment(
        "run_spatial_distortion", "seeds", 8,
        ("mechanism", "mean_m", "median_m", "p95_m", "max_m", "point_retention",
         "trip_length_error"),
    ),
    "e3": Experiment(
        "run_area_coverage", "", 32,
        ("mechanism", "cell_size_m", "precision", "recall", "f_score"),
    ),
    "e6": Experiment(
        "run_tradeoff_frontier", "seed", 12,
        ("mechanism", "poi_f_score", "poi_recall", "median_distortion_m", "area_coverage_f",
         "point_retention", "range_query_error"),
    ),
    "e4": Experiment(
        "run_reidentification", "seed", 5,
        ("variant", "poi_attack_rate", "footprint_attack_rate", "published_users", "n_zones",
         "n_swaps"),
    ),
    "e5": Experiment(
        "run_tracking", "seed", 3,
        ("zone_radius_m", "swap_policy", "n_zones", "n_swapped_zones", "tracking_success",
         "mixing_entropy_bits", "suppressed_points"),
    ),
    "e8": Experiment(
        "run_mixzone_stats", "", 4,
        ("zone_radius_m", "n_zones", "mean_participants", "max_participants",
         "mean_entropy_bits"),
    ),
}


def _invalid_value(value: Any) -> bool:
    if hasattr(value, "item") and not isinstance(value, str):
        value = value.item()
    if isinstance(value, (bool, int, str)):
        return False
    return not (isinstance(value, float) and math.isfinite(value))


@dataclass
class PassOutput:
    """What one timed pass produced, for the checks after the timed region."""

    rows: Dict[str, Optional[List[Dict[str, Any]]]]
    stored: Dict[str, int]


class PaperWorkload:
    """Runner entry points of the paper's experiments on one world family."""

    def __init__(
        self, name: str, world: str, experiments: Sequence[str], scale: str, seed: int,
        digests: Optional[Dict[str, List[str]]],
    ) -> None:
        self.name = name
        self.world_spec = f"{world}:scale={scale},seed={seed}"
        self.warmup_spec = f"{world}:scale=tiny,seed={seed}"
        self.experiments = tuple(experiments)
        self.base = mechanism_seed_base(seed)
        self.digests = digests

    def _kwargs(self, experiment: Experiment) -> Dict[str, Any]:
        if experiment.seed_arg == "seeds":
            return {"seeds": (self.base,)}
        if experiment.seed_arg == "seed":
            return {"seed": self.base}
        return {}

    def prepare(self, work_dir: Path) -> None:
        """The discarded tiny-scale warm-up pass."""
        self.run_pass({"world": make_world(self.warmup_spec)}, Tracer(enabled=False))

    def pass_setup(self, tracer: Tracer, work_dir: Path) -> Dict[str, Any]:
        with tracer.span("worlds.build"):
            world = make_world(self.world_spec)
        world.dataset.content_fingerprint()
        return {"world": world, "points": world.dataset.n_points}

    def run_pass(self, state: Dict[str, Any], tracer: Tracer) -> PassOutput:
        output = PassOutput(rows={}, stored={})
        for eid in self.experiments:
            experiment = EXPERIMENTS[eid]
            cache = tracer.watch_cache(InMemoryCellCache())
            with tracer.span("runner." + eid):
                try:
                    output.rows[eid] = getattr(runner, experiment.runner)(
                        state["world"], cell_cache=cache, **self._kwargs(experiment)
                    )
                except Exception:  # a raising cell counts as failed, the run goes on
                    traceback.print_exc(file=sys.stderr)
                    output.rows[eid] = None
            output.stored[eid] = len(cache)
        return output

    def digests_of(self, output: PassOutput, exact: bool) -> Dict[str, List[str]]:
        return {
            eid: [row_digest(row, exact) for row in rows or []]
            for eid, rows in output.rows.items()
        }

    def check(self, output: PassOutput, state: Dict[str, Any]) -> Tuple[int, int]:
        """``(attempted, failed)`` cells of one pass."""
        attempted = failed = 0
        for eid, rows in output.rows.items():
            experiment = EXPERIMENTS[eid]
            attempted += experiment.n_rows
            if rows is None or len(rows) != experiment.n_rows:
                _report(f"{self.name} {eid}: expected {experiment.n_rows} rows, got "
                        f"{None if rows is None else len(rows)}")
                failed += experiment.n_rows
                continue
            if output.stored[eid] != experiment.n_rows:
                # Every cell must be computed by this pass and stored once.
                _report(f"{self.name} {eid}: {output.stored[eid]} cells stored, "
                        f"expected {experiment.n_rows} (a cache served this pass)")
                failed += experiment.n_rows
                continue
            bad = {
                i for i, row in enumerate(rows)
                if tuple(row) != experiment.columns
                or any(_invalid_value(value) for value in row.values())
            }
            if self.digests is not None:
                expected = self.digests.get(eid, [])
                bad |= {
                    i for i, row in enumerate(rows)
                    if i >= len(expected) or row_digest(row) != expected[i]
                }
            if bad:
                _report(f"{self.name} {eid}: rows {sorted(bad)} are wrong")
            failed += len(bad)
        return attempted, failed

    def layers(
        self, tracer: Tracer, index: int, output: PassOutput, wall: float,
        state: Dict[str, Any],
    ) -> Dict[str, float]:
        layers = _with_setup(fold(tracer.of_run(f"pass{index}")), tracer, index, state)
        # Serial in-process runs: no workers, no shipping, nothing to overlap.
        for name in ("cache.worker_puts", "backend.overhead_s", *BACKEND_STATS):
            layers[name] = 0
        layers["trace.coverage"] = layers.pop("trace.self_s") / wall
        return layers

    def cleanup(self, state: Dict[str, Any]) -> None:
        pass


# ---------------------------------------------------------------------------
# Fleet workload
# ---------------------------------------------------------------------------

#: E1's stay-point attack and E2's metric group plus E3's four cell sizes.
FLEET_ATTACK = (
    "poi-retrieval:algorithm=staypoint,match_distance_m=250.0,min_stay_s=900.0,"
    "adaptive=true,engine=vectorized"
)
FLEET_METRIC_GROUPS: List[Any] = [
    ("spatial-distortion:match_by_user=false", "point-retention", "trip-length-error")
] + [f"area-coverage:cell_size_m={size!r}" for size in (100.0, 200.0, 400.0, 800.0)]

#: Seeds of the sweep already in the prefilled cache (of ``seed_sweep(5)``).
PREFILLED_SEEDS = 4


class FleetWorkload:
    """Resume a five-seed sweep from a prefilled sqlite cache on a work queue."""

    name = "fleet-resume"

    def __init__(self, scale: str, seed: int) -> None:
        self.scale = scale
        self.world_seed = seed
        base = mechanism_seed_base(seed)
        self.seeds = tuple(base + s for s in runner.seed_sweep(5))
        self.backend = f"work-queue:workers={min(2, os.cpu_count() or 1)}"
        self.reference: List[str] = []
        self.prefill_path: Optional[Path] = None

    def spec(self, seeds: Sequence[int]) -> ExperimentSpec:
        return ExperimentSpec(
            name="fleet-resume",
            mechanisms=list(runner.DEFAULT_MECHANISM_SPECS.items()),
            attacks=[("staypoint", FLEET_ATTACK)],
            metrics=FLEET_METRIC_GROUPS,
            worlds=["world"],
            seeds=tuple(seeds),
        )

    @property
    def n_cells(self) -> int:
        return len(self.spec(self.seeds).cells())

    @property
    def n_prefilled(self) -> int:
        return len(self.spec(self.seeds[:PREFILLED_SEEDS]).cells())

    def _write_store(self, path: Path) -> Any:
        n_users, n_days = WORKLOAD_SCALES[self.scale]
        # The standard world's configuration (repro.experiments.workloads).
        return generate_world_store(
            str(path), n_users=n_users, n_days=n_days, seed=self.world_seed,
            city_config=CityConfig(), schedule_config=ScheduleConfig(),
            simulation_config=SimulationConfig(sampling_interval_s=30.0),
            noise_config=GpsNoiseConfig(
                horizontal_error_m=5.0, dropout_probability=0.02, seed=self.world_seed
            ),
        )

    def prepare(self, work_dir: Path) -> None:
        """Warm up, then build the seed 0-3 prefill and the cold serial rows.

        The prefill is made by the code under test on every invocation, so a
        change to the cell-key format keeps the cache hits it should.  The
        reference for the bitwise row check is the cold serial run: the
        prefill run over the first four seeds plus a cache-less run over the
        last one.
        """
        warmup = EvaluationEngine(backend="serial", cache=InMemoryCellCache())
        warmup.run(self.spec(self.seeds[:1]),
                   worlds={"world": make_world(f"standard:scale=tiny,seed={self.world_seed}")})
        self._write_store(work_dir / "reference.store")
        world = make_world(f"store:path={work_dir / 'reference.store'}")
        self.prefill_path = work_dir / "prefill.sqlite"
        prefill = SqliteCellCache(str(self.prefill_path))
        try:
            rows = EvaluationEngine(backend="serial", cache=prefill).run(
                self.spec(self.seeds[:PREFILLED_SEEDS]), worlds={"world": world}
            )
        finally:
            prefill.close()
        rows += EvaluationEngine(backend="serial", cache=False).run(
            self.spec(self.seeds[PREFILLED_SEEDS:]), worlds={"world": world}
        )
        self.reference = [row_digest(row, exact=True) for row in rows]

    def _engine(self, tracer: Tracer, work_dir: Path, backend: str, name: str) -> Any:
        path = work_dir / name
        with tracer.span("cache.copy"):
            shutil.copyfile(self.prefill_path, path)
        with tracer.span("engine.construct"):
            cache = tracer.watch_cache(SqliteCellCache(str(path)))
            return EvaluationEngine(backend=backend, cache=cache)

    def pass_setup(self, tracer: Tracer, work_dir: Path) -> Dict[str, Any]:
        pass_dir = work_dir / f"pass-{time.monotonic_ns()}"
        pass_dir.mkdir()
        with tracer.span("store.write"):
            self._write_store(pass_dir / "world.store")
        with tracer.span("store.open"):
            world = make_world(f"store:path={pass_dir / 'world.store'}")
        world.dataset.content_fingerprint()
        engine = self._engine(tracer, pass_dir, self.backend, "cells.sqlite")
        return {"dir": pass_dir, "world": world, "engine": engine,
                "points": world.dataset.n_points}

    def run_pass(self, state: Dict[str, Any], tracer: Tracer) -> Any:
        try:
            return state["engine"].run(self.spec(self.seeds), worlds={"world": state["world"]})
        except Exception:  # a raising pass fails all its cells, the run goes on
            traceback.print_exc(file=sys.stderr)
            return None
        finally:
            state["engine"].cache_store.close()

    def digests_of(self, rows: Any, exact: bool) -> Dict[str, List[str]]:
        return {"cells": [row_digest(row, exact) for row in rows or []]}

    def check(self, rows: Any, state: Dict[str, Any]) -> Tuple[int, int]:
        engine = state["engine"]
        if rows is None:
            return self.n_cells, self.n_cells
        failed = count_mismatches(self.reference, [row_digest(r, exact=True) for r in rows])
        if failed:
            _report(f"{self.name}: {failed} rows differ from the cold serial run")
        pending = self.n_cells - self.n_prefilled
        stats = getattr(engine.backend, "last_stats", {})
        counters = {
            "cache hits": (engine.cache_hits, self.n_prefilled),
            "cache misses": (engine.cache_misses, pending),
        }
        if stats:
            counters["rows shipped"] = (stats.get("rows_shipped"), 0)
            counters["worker puts"] = (stats.get("cache_rows_written"), pending)
        wrong = {label: got for label, (got, want) in counters.items() if got != want}
        if wrong:
            _report(f"{self.name}: wrong counters {wrong}; the resumed cells count as failed")
            failed = max(failed, pending)
        return self.n_cells, failed

    def serial_leg(self, state: Dict[str, Any], tracer: Tracer) -> Tuple[Any, Any]:
        """The same pending groups on the serial backend (traced runs only)."""
        engine = self._engine(tracer, state["dir"], "serial", "serial.sqlite")
        try:
            return engine.run(self.spec(self.seeds), worlds={"world": state["world"]}), engine
        finally:
            engine.cache_store.close()

    def layers(
        self, tracer: Tracer, index: int, output: Any, wall: float, state: Dict[str, Any],
    ) -> Dict[str, float]:
        fleet = fold(tracer.of_run(f"pass{index}"))
        serial = fold(tracer.of_run(f"serial{index}"))
        # Compute layers come from the serial leg; engine, cache and scheduler
        # figures from the work-queue leg.
        layers = _with_setup(dict(serial), tracer, index, state)
        for name, value in fleet.items():
            if name.startswith(("engine.run_s", "engine.self_s", "engine.cells", "cache.",
                                "backend.")):
                layers[name] = value
        stats = state["engine"].backend.last_stats
        for name in BACKEND_STATS:
            value = stats.get(name.split(".", 1)[1], 0)
            layers[name] = len(value) if name == "backend.evictions" else value
        layers["cache.worker_puts"] = stats.get("cache_rows_written", 0)
        layers["backend.overhead_s"] = (
            fleet["backend.map_groups_s"] - serial["backend.map_groups_s"]
        )
        layers["trace.coverage"] = (fleet["trace.self_s"] + serial["trace.self_s"]) / (
            wall + state["serial_wall"]
        )
        layers.pop("trace.self_s")
        return layers

    def cleanup(self, state: Dict[str, Any]) -> None:
        shutil.rmtree(state["dir"], ignore_errors=True)


def _with_setup(
    layers: Dict[str, float], tracer: Tracer, index: int, state: Dict[str, Any]
) -> Dict[str, float]:
    """Add the pass set-up's layers (world, store, fingerprint) to a pass's."""
    setup = fold(tracer.of_run(f"setup{index}"))
    for name in ("worlds.build_s", "store.write_s", "store.open_s", "trajectory.fingerprint_s"):
        layers[name] = setup[name]
    layers["worlds.points"] = state["points"]
    return layers


def _report(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)

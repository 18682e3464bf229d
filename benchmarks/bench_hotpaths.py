"""Hot-path benchmark: the publication and metric cells rebuilt on columnar kernels.

Mix-zone detection, Wait-For-Me publication, speed smoothing and the full
Promesse publication (smoothing + mix-zone swapping), timed directly — no
attack or metric overhead.  The utility metrics of E2/E3/E6 (spatial
distortion, area coverage at the four E3 cell sizes, range queries) are
timed the same way, each comparing the smoothing publication against the
standard world it came from.  The original world is reused across repeats,
as the engine reuses it across cells, so its nearest-point index is built
once per session (in the first spatial-distortion sample, unless an earlier
bench already built it) and ``wall_s`` times queries against it.
The bench records throughput plus the speedup against the committed
pre-refactor baselines in ``BENCH_hotpaths.json``.

The detection and Wait-For-Me numbers below were measured on the
implementation at commit 63d6381 (Python double loops over spatial bins for
detection; per-pair synchronized-distance reductions for W4M clustering).
The smoothing and Promesse numbers were measured at commit e3422b8, where
the chained resample still walked one fix at a time with scalar haversine
calls.  The metric numbers were measured at commit ad91bbd, where area
coverage built Python sets of ``(row, col)`` tuples and spatial distortion
rebuilt the projection and KD-tree of the original world on every call.
All are best of several runs on the workloads this bench generates.
"""

from __future__ import annotations

from repro.api.registry import make_mechanism
from repro.baselines.wait4me import Wait4MeConfig, Wait4MeMechanism
from repro.experiments.formatting import format_table
from repro.metrics.utility import area_coverage, dataset_spatial_distortion, range_query_distortion
from repro.mixzones.detection import detect_mix_zones

#: Pre-refactor wall seconds, by (cell, scale).  Scales not measured before
#: the refactor have no baseline and report speedup None.
PRE_REFACTOR_S = {
    ("detect_mix_zones", "medium"): 0.977,
    ("detect_mix_zones", "large"): 19.54,
    ("wait4me_publish", "medium"): 0.0402,
    ("wait4me_publish", "large"): 0.223,
    ("smoothing_publish", "small"): 0.0342,
    ("smoothing_publish", "medium"): 0.390,
    ("promesse_publish", "small"): 0.0755,
    ("promesse_publish", "medium"): 0.793,
    ("area_coverage_metric", "small"): 0.0258,
    ("area_coverage_metric", "medium"): 0.171,
    ("spatial_distortion_metric", "small"): 0.0122,
    ("spatial_distortion_metric", "medium"): 0.0895,
    ("range_query_metric", "small"): 0.0114,
    ("range_query_metric", "medium"): 0.0598,
}

#: E3's cell sizes: one area-coverage sample scores all four.
COVERAGE_CELL_SIZES_M = (100.0, 200.0, 400.0, 800.0)

#: The two paper mechanisms: speed smoothing on the standard world, the full
#: Promesse pipeline (E4's "paper-full") on the crossing-rich world.
SMOOTHING_SPEC = "smoothing:epsilon_m=100.0"
PROMESSE_SPEC = "promesse:swap=coin_flip,seed=0"


def _cell_timing(cell: str, scale: str, samples: list, points: int) -> dict:
    before = PRE_REFACTOR_S.get((cell, scale))
    wall_s = min(samples)
    return {
        "wall_s": wall_s,
        "wall_s_samples": list(samples),
        # None (not inf/NaN) when the timer under-resolves: the artifact
        # writer emits strict JSON only.
        "points_per_s": points / wall_s if wall_s > 0 else None,
        "pre_refactor_wall_s": before,
        "speedup": (before / wall_s) if before and wall_s > 0 else None,
    }


def test_hotpaths(
    eval_world, crossing_eval_world, bench_artifact, bench_timer, evaluation_scale
):
    crossing = crossing_eval_world.dataset
    standard = eval_world.dataset

    zones, mixzone_samples = bench_timer(
        lambda: detect_mix_zones(crossing, radius_m=100.0)
    )
    mechanism = Wait4MeMechanism(Wait4MeConfig(k=4, delta_m=500.0))
    published, wait4me_samples = bench_timer(
        lambda: mechanism.publish(standard), repeats=5
    )
    smoothing = make_mechanism(SMOOTHING_SPEC)
    smoothed, smoothing_samples = bench_timer(lambda: smoothing.publish(standard), repeats=5)
    promesse = make_mechanism(PROMESSE_SPEC)
    protected, promesse_samples = bench_timer(lambda: promesse.publish(crossing))

    smoothed_dataset = smoothed.dataset
    scores, coverage_samples = bench_timer(
        lambda: [
            area_coverage(standard, smoothed_dataset, cell_size_m=size)
            for size in COVERAGE_CELL_SIZES_M
        ],
        repeats=5,
    )
    distortion, distortion_samples = bench_timer(
        lambda: dataset_spatial_distortion(standard, smoothed_dataset), repeats=5
    )
    range_error, range_samples = bench_timer(
        lambda: range_query_distortion(standard, smoothed_dataset), repeats=5
    )

    timings = {
        "detect_mix_zones": _cell_timing(
            "detect_mix_zones", evaluation_scale, mixzone_samples, crossing.n_points
        ),
        "wait4me_publish": _cell_timing(
            "wait4me_publish", evaluation_scale, wait4me_samples, standard.n_points
        ),
        "smoothing_publish": _cell_timing(
            "smoothing_publish", evaluation_scale, smoothing_samples, standard.n_points
        ),
        "promesse_publish": _cell_timing(
            "promesse_publish", evaluation_scale, promesse_samples, crossing.n_points
        ),
        # Metric throughput counts the published points each call scores.
        "area_coverage_metric": _cell_timing(
            "area_coverage_metric",
            evaluation_scale,
            coverage_samples,
            len(COVERAGE_CELL_SIZES_M) * smoothed_dataset.n_points,
        ),
        "spatial_distortion_metric": _cell_timing(
            "spatial_distortion_metric",
            evaluation_scale,
            distortion_samples,
            smoothed_dataset.n_points,
        ),
        "range_query_metric": _cell_timing(
            "range_query_metric", evaluation_scale, range_samples, smoothed_dataset.n_points
        ),
    }
    rows = [
        {
            "cell": cell,
            "wall_s": values["wall_s"],
            "points_per_s": values["points_per_s"],
            "speedup_vs_pre_refactor": values["speedup"],
        }
        for cell, values in timings.items()
    ]
    path = bench_artifact(
        "hotpaths",
        timings=timings,
        rows=rows,
        baseline={
            "pre_refactor": {
                cell: seconds
                for (cell, scale), seconds in PRE_REFACTOR_S.items()
                if scale == evaluation_scale
            },
            "measured_at_commit": {
                "detect_mix_zones": "63d6381",
                "wait4me_publish": "63d6381",
                "smoothing_publish": "e3422b8",
                "promesse_publish": "e3422b8",
                "area_coverage_metric": "ad91bbd",
                "spatial_distortion_metric": "ad91bbd",
                "range_query_metric": "ad91bbd",
            },
        },
        extra={
            "workload": {
                "crossing_points": crossing.n_points,
                "standard_points": standard.n_points,
                "smoothing_spec": SMOOTHING_SPEC,
                "promesse_spec": PROMESSE_SPEC,
                "smoothed_points": smoothed_dataset.n_points,
                "coverage_cell_sizes_m": list(COVERAGE_CELL_SIZES_M),
            },
            "metric_values": {
                "coverage_f_scores": [score.f_score for score in scores],
                "median_distortion_m": distortion.median,
                "range_query_error": range_error,
            },
        },
    )
    print()
    print(format_table(
        ["cell", "wall_s", "points_per_s", "speedup_vs_pre_refactor"],
        [[r[h] for h in ("cell", "wall_s", "points_per_s", "speedup_vs_pre_refactor")] for r in rows],
        title=f"Hot paths at scale={evaluation_scale} (artifact: {path})",
    ))

    # Output sanity at any scale; zone existence needs enough users to cross.
    if evaluation_scale not in ("tiny",):
        assert zones, "the crossing-rich workload must contain mix-zones"
        assert len(published) > 0, "wait4me must publish at least one group"
        assert len(smoothed) > 0 and len(protected) > 0, "the paper mechanisms must publish"

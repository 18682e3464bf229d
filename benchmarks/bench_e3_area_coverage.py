"""E3 — area coverage (utility) per mechanism and cell size.

Regenerates the area-coverage table of EXPERIMENTS.md: the F-score between the
set of grid cells visited by the published data and by the original data, at
several cell sizes.  Expected shape: the paper's mechanisms track the raw
coverage closely (their points lie on the real paths), while noising
mechanisms spill points into never-visited cells and lose precision.

The whole experiment is timed min-of-k into
``BENCH_e3_area_coverage.<scale>.json``; every sample runs on a fresh
in-memory cell cache, so repeats recompute every cell instead of timing
cache hits; the session's configured scheduler backend still runs them.
"""

from __future__ import annotations

from repro.experiments.cache import InMemoryCellCache
from repro.experiments.formatting import format_table
from repro.experiments.runner import default_engine, run_area_coverage

HEADERS = ["mechanism", "cell_size_m", "precision", "recall", "f_score"]
CELL_SIZES = (100.0, 200.0, 400.0, 800.0)


def test_e3_area_coverage(eval_world, bench_artifact, bench_timer):
    rows, samples = bench_timer(
        lambda: run_area_coverage(
            eval_world,
            cell_sizes_m=CELL_SIZES,
            scheduler=default_engine().backend,
            cell_cache=InMemoryCellCache(),
        )
    )
    print()
    print(format_table(HEADERS, [[r[h] for h in HEADERS] for r in rows],
                       title="E3 - area coverage per mechanism and cell size"))
    path = bench_artifact(
        "e3_area_coverage",
        timings={
            "run_area_coverage": {
                "wall_s": min(samples),
                "wall_s_samples": list(samples),
                "rows": len(rows),
            }
        },
        rows=rows,
        extra={"cell_sizes_m": list(CELL_SIZES), "points": eval_world.dataset.n_points},
    )
    print(f"artifact: {path}")

    def f_score(mechanism: str, cell_size: float) -> float:
        return next(
            r["f_score"] for r in rows if r["mechanism"] == mechanism and r["cell_size_m"] == cell_size
        )

    assert f_score("raw", 200.0) == 1.0
    # At the 200 m granularity, our published cells remain close to the truth
    # while the strong Geo-I noise scatters points into unvisited cells.
    assert f_score("smoothing-eps100", 200.0) > f_score("geo-ind-strong", 200.0)
    assert f_score("paper-full", 400.0) > 0.6

"""Tests for the experiment harness: workloads, runners and formatting."""

from __future__ import annotations

import pytest

from repro.experiments.formatting import format_percent, format_series, format_table
from repro.experiments.runner import (
    DEFAULT_MECHANISM_SPECS,
    ground_truth_pois,
    run_area_coverage,
    run_mixzone_stats,
    run_poi_retrieval,
    run_reidentification,
    run_spatial_distortion,
    run_tracking,
)
from repro.experiments.workloads import (
    WORKLOAD_SCALES,
    crossing_rich_world,
    split_train_publish,
    standard_world,
)


class TestFormatting:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1.0], ["longer", 0.5]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5
        # All data lines have the same width.
        assert len(set(len(line) for line in lines[1:])) <= 2

    def test_format_series(self):
        text = format_series("f", [1, 2], [0.1, 0.2])
        assert "0.100" in text and "0.200" in text

    def test_format_percent(self):
        assert format_percent(0.615) == "61.5%"


class TestWorkloads:
    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError):
            standard_world("planetary")
        with pytest.raises(ValueError):
            crossing_rich_world("planetary")

    def test_scales_are_increasing(self):
        assert WORKLOAD_SCALES["tiny"][0] < WORKLOAD_SCALES["small"][0] < WORKLOAD_SCALES["medium"][0]

    def test_split_train_publish(self, small_world):
        training, publish = split_train_publish(small_world, 0.5)
        t_train_min, t_train_max = training.time_span
        t_pub_min, t_pub_max = publish.time_span
        assert t_train_max <= t_pub_min + 1e-6
        assert training.n_points + publish.n_points <= small_world.dataset.n_points
        with pytest.raises(ValueError):
            split_train_publish(small_world, 1.5)

    def test_crossing_rich_world_has_more_crossings(self):
        from repro.mixzones.detection import MixZoneDetector

        plain = standard_world("tiny", seed=1)
        rich = crossing_rich_world("tiny", seed=1)
        detector = MixZoneDetector()
        assert len(detector.detect(rich.dataset)) >= len(detector.detect(plain.dataset))


class TestRunners:
    """Smoke-level tests: each runner returns well-formed rows with sane values.

    The heavier, shape-asserting runs live in the benchmarks; here a tiny world
    keeps the suite fast while still executing every code path.
    """

    @pytest.fixture(scope="class")
    def world(self):
        return standard_world("tiny", seed=5)

    @pytest.fixture(scope="class")
    def rich_world(self):
        return crossing_rich_world("small", seed=5)

    def test_default_mechanism_suite(self):
        suite = DEFAULT_MECHANISM_SPECS
        assert "raw" in suite and "paper-full" in suite
        assert len(suite) >= 6

    def test_ground_truth_pois(self, world):
        pois = ground_truth_pois(world)
        assert pois
        assert all(len(p) == 2 for p in pois)

    def test_run_poi_retrieval_rows(self, world):
        mechanisms = {
            "raw": DEFAULT_MECHANISM_SPECS["raw"],
            "paper": DEFAULT_MECHANISM_SPECS["paper-full"],
        }
        rows = run_poi_retrieval(world, mechanisms)
        assert {r["mechanism"] for r in rows} == {"raw", "paper"}
        for row in rows:
            assert 0.0 <= row["precision"] <= 1.0
            assert 0.0 <= row["recall"] <= 1.0
        raw_row = next(r for r in rows if r["mechanism"] == "raw")
        paper_row = next(r for r in rows if r["mechanism"] == "paper")
        assert raw_row["recall"] > paper_row["recall"]

    def test_run_poi_retrieval_rejects_unknown_attack(self, world):
        with pytest.raises(ValueError):
            run_poi_retrieval(world, {"raw": DEFAULT_MECHANISM_SPECS["raw"]}, attack="psychic")

    def test_run_spatial_distortion_rows(self, world):
        mechanisms = {
            "raw": DEFAULT_MECHANISM_SPECS["raw"],
            "geo": DEFAULT_MECHANISM_SPECS["geo-ind-weak"],
        }
        rows = run_spatial_distortion(world, mechanisms)
        raw_row = next(r for r in rows if r["mechanism"] == "raw")
        geo_row = next(r for r in rows if r["mechanism"] == "geo")
        assert raw_row["median_m"] == 0.0
        assert geo_row["median_m"] > raw_row["median_m"]

    def test_run_area_coverage_rows(self, world):
        mechanisms = {"raw": DEFAULT_MECHANISM_SPECS["raw"]}
        rows = run_area_coverage(world, mechanisms, cell_sizes_m=(200.0, 400.0))
        assert len(rows) == 2
        assert all(row["f_score"] == 1.0 for row in rows)

    def test_run_reidentification_rows(self, rich_world):
        rows = run_reidentification(rich_world)
        variants = [r["variant"] for r in rows]
        assert variants[0] == "pseudonyms-only"
        baseline = rows[0]
        assert baseline["poi_attack_rate"] > 0.5
        assert baseline["footprint_attack_rate"] > 0.5
        swapped = next(r for r in rows if "always" in r["variant"])
        assert swapped["footprint_attack_rate"] <= baseline["footprint_attack_rate"]

    def test_run_tracking_rows(self, rich_world):
        rows = run_tracking(rich_world, zone_radii_m=(100.0,))
        assert len(rows) == 1
        row = rows[0]
        assert row["n_zones"] > 0
        assert 0.0 <= row["tracking_success"] <= 1.0

    def test_run_mixzone_stats_rows(self, rich_world):
        rows = run_mixzone_stats(rich_world, zone_radii_m=(100.0, 200.0))
        assert len(rows) == 2
        assert all(row["n_zones"] >= 0 for row in rows)
        assert all(row["mean_participants"] >= 0 for row in rows)

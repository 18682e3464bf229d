"""Tiny-scale self-test of the benchmark: ``python3 -m pytest perfbench -q``.

Runs every workload at ``--scale tiny`` through the real command line and
checks the output contract against ``BENCHMARK.json``: every metric name
prints with its unit, a corrupted row digest shows up as failed cells, the
fleet workload's cache and scheduler counts are exact, and the traced run
reports its coverage.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300,
    )


def result_of(*args: str) -> dict:
    done = run_bench("--scale", "tiny", "--seed", "42", "--seconds", "1", *args)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


_TRACED: dict = {}


def traced_metrics(workload: str) -> dict:
    """The traced run's result of one workload (run once per test process)."""
    if workload not in _TRACED:
        _TRACED[workload] = result_of("--workload", workload, "--trace", "1")
    return _TRACED[workload]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_print_with_units(workload):
    result = result_of("--workload", workload, "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {metric["name"]: metric["unit"] for metric in BENCHMARK["end_to_end"]}
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == expected
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_print_with_units(workload):
    result = traced_metrics(workload)
    assert result["correct"] and result["failed"] == 0, workload
    expected = {metric["name"]: metric["unit"] for metric in BENCHMARK["per_layer"]}
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == expected
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert 0.9 < metrics["trace.coverage"] <= 1.0 + 1e-9
    assert "trace.overhead" in metrics
    if workload.startswith("paper-"):
        assert metrics["cache.hits"] == 0
        assert metrics["cache.puts"] == metrics["engine.cells"]
        assert metrics["backend.overhead_s"] == 0


def test_fleet_resume_counts_are_exact():
    result = traced_metrics("fleet-resume")
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert metrics["engine.cells"] == 200
    assert metrics["cache.gets"] == 200
    assert metrics["cache.hits"] == 160
    assert metrics["cache.worker_puts"] == 40
    assert metrics["backend.rows_shipped"] == 0
    assert metrics["backend.task_batches"] == 8
    assert metrics["publish.calls"] == 8
    assert metrics["attack.calls"] == 40
    assert metrics["engine.attack_reuse"] == pytest.approx(0.2)


def test_corrupted_digest_counts_failed_cells(tmp_path):
    digests = json.loads((HERE / "digests.json").read_text())
    rows = digests["paper-standard"]["tiny/42"]["e1"]
    rows[0] = "0" * len(rows[0])
    corrupted = tmp_path / "digests.json"
    corrupted.write_text(json.dumps(digests))
    result = result_of("--workload", "paper-standard", "--trace", "0",
                       "--digests", str(corrupted))
    passes = result["attempted"] // 60  # 60 cells per paper-standard pass
    assert not result["correct"]
    assert result["failed"] == passes >= 2


def test_refuses_to_run_without_the_code_under_test(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "{" not in done.stdout

#!/usr/bin/env python3
"""The repository benchmark: run one workload, check its rows, print metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-standard --seed 42 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

``--trace 0`` prints the end-to-end metrics (``wall_s``, ``cpu_s``,
``setup_s``, ``peak_rss_mb``); ``--trace 1`` also runs traced passes, for
half the time budget, and prints the per-layer metrics instead.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; ``attempted``
and ``failed`` count result cells over every pass of the run.

The seed sets every world seed and the mechanism seed base (see
``workloads.mechanism_seed_base``).  The benchmark imports ``repro`` from
``src/`` next to this directory and nowhere else, and exits non-zero without
a result when that package is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
WORKLOADS = ("paper-standard", "paper-crossing", "fleet-resume")
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
)
#: Untimed passes a run makes at least; set-up samples a run takes at least.
MIN_PASSES = 2
MIN_SETUPS = 3

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
RATIO_METRICS = (
    "engine.publish_reuse", "engine.attack_reuse", "cache.hit_ratio", "trace.coverage",
    "trace.overhead",
)


def layer_metric_names() -> List[str]:
    from spans import ATTACK_NAMES, METRIC_NAMES, PUBLISH_FAMILIES, RUNNER_IDS

    return [
        "worlds.build_s", "worlds.points", "store.write_s", "store.open_s",
        "trajectory.fingerprint_s",
        "publish.s", "publish.calls", "publish.points_in", "publish.points_out",
        *(f"publish.{family}_s" for family in PUBLISH_FAMILIES),
        "attack.s", "attack.calls", *(f"attack.{name}_s" for name in ATTACK_NAMES),
        "metric.s", "metric.calls", *(f"metric.{name}_s" for name in METRIC_NAMES),
        "engine.run_s", "engine.self_s", "engine.cells", "engine.publish_reuse",
        "engine.attack_reuse",
        "cache.gets", "cache.hits", "cache.hit_ratio", "cache.puts", "cache.worker_puts",
        "cache.get_s", "cache.put_s",
        "backend.map_groups_s", "backend.overhead_s", "backend.task_batches",
        "backend.workers_seen", "backend.rows_shipped", "backend.requeues",
        "backend.evictions",
        *(f"runner.{runner}_s" for runner in RUNNER_IDS),
        "trace.coverage", "trace.overhead",
    ]


def layer_unit(name: str) -> str:
    if name in RATIO_METRICS:
        return "ratio"
    return "s" if name.endswith(("_s", ".s")) else "count"


# ---------------------------------------------------------------------------
# Process set-up
# ---------------------------------------------------------------------------


def isolate_environment() -> List[str]:
    """Drop the repo's ``REPRO_*`` knobs and pin native thread pools to 1.

    The runner module builds its shared engine from ``REPRO_ENGINE_*`` at
    import, and spawned work-queue workers inherit this environment, so both
    happen before ``repro`` or numpy is imported.
    """
    cleared = sorted(name for name in os.environ if name.startswith("REPRO_"))
    for name in cleared:
        del os.environ[name]
    for name in THREAD_VARS:
        os.environ[name] = "1"
    return cleared


def import_code_under_test() -> None:
    """Put this checkout's ``src/`` first on the path and import ``repro``."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro package under {src}; nothing to measure")
    sys.path.insert(0, str(src))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def cpu_seconds() -> float:
    """User + system time of this process and of its reaped children."""
    times = os.times()
    return times.user + times.system + times.children_user + times.children_system


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def run_passes(
    workload: Any, tracer: Any, seconds: float, min_passes: int, work_dir: Path
) -> List[Dict[str, Any]]:
    """Closed-loop passes until ``seconds`` would be exceeded (at least ``min_passes``)."""
    from spans import instrument

    records: List[Dict[str, Any]] = []
    start = time.perf_counter()
    while len(records) < min_passes or (
        time.perf_counter() - start + statistics.median(r["wall"] for r in records) <= seconds
    ):
        index = len(records)
        record: Dict[str, Any] = {}
        with instrument(tracer):
            tracer.run = f"setup{index}"
            began = time.perf_counter()
            state = workload.pass_setup(tracer, work_dir)
            record["setup"] = time.perf_counter() - began
            gc.collect()  # garbage of the previous pass is not this pass's work
            tracer.run = f"pass{index}"
            cpu, began = cpu_seconds(), time.perf_counter()
            output = workload.run_pass(state, tracer)
            record["wall"] = time.perf_counter() - began
            record["cpu"] = cpu_seconds() - cpu
            serial_leg = getattr(workload, "serial_leg", None)
            if tracer.enabled and serial_leg is not None:
                tracer.run = f"serial{index}"
                began = time.perf_counter()
                serial_rows, serial_engine = serial_leg(state, tracer)
                state["serial_wall"] = time.perf_counter() - began
        record["attempted"], record["failed"] = workload.check(output, state)
        if tracer.enabled and serial_leg is not None:
            attempted, failed = workload.check(serial_rows, {"engine": serial_engine})
            record["attempted"] += attempted
            record["failed"] += failed
        record["digests"] = workload.digests_of(output, exact=True)
        if index == 0:
            record["stored_digests"] = workload.digests_of(output, exact=False)
        if tracer.enabled:
            record["layers"] = workload.layers(tracer, index, output, record["wall"], state)
        workload.cleanup(state)
        records.append(record)
        print(f"# {'traced ' if tracer.enabled else ''}pass {index}: wall_s={record['wall']:.4f} "
              f"cpu_s={record['cpu']:.4f} setup_s={record['setup']:.4f} "
              f"failed={record['failed']}/{record['attempted']}", flush=True)
    return records


def workload_scale(args: argparse.Namespace) -> str:
    return args.scale or ("small" if args.workload == "fleet-resume" else "medium")


def make_workload(args: argparse.Namespace, digests: Any) -> Any:
    from workloads import FleetWorkload, PaperWorkload

    name, scale, seed = args.workload, workload_scale(args), args.seed
    if name == "fleet-resume":
        return FleetWorkload(scale, seed)
    expected = digests.get(name, {}).get(f"{scale}/{seed}")
    if name == "paper-standard":
        return PaperWorkload(name, "standard", ("e1", "e2", "e3", "e6"), scale, seed, expected)
    return PaperWorkload(name, "crossing", ("e4", "e5", "e8"), scale, seed, expected)


def measure(args: argparse.Namespace, work_dir: Path) -> Dict[str, Any]:
    from spans import Tracer
    from workloads import count_mismatches

    digests = json.loads(Path(args.digests).read_text()) if Path(args.digests).is_file() else {}
    # Recording trusts this run's rows: check only their invariants.
    workload = make_workload(args, {} if args.record_digests else digests)

    began = time.perf_counter()
    workload.prepare(work_dir)
    prepare_s = time.perf_counter() - began
    untraced = run_passes(workload, Tracer(enabled=False), args.seconds, MIN_PASSES, work_dir)
    setups = [record["setup"] for record in untraced]
    while len(setups) < MIN_SETUPS:
        began = time.perf_counter()
        workload.cleanup(workload.pass_setup(Tracer(enabled=False), work_dir))
        setups.append(time.perf_counter() - began)
    attempted = sum(record["attempted"] for record in untraced)
    failed = sum(record["failed"] for record in untraced)

    if args.record_digests:
        key = f"{workload_scale(args)}/{args.seed}"
        digests.setdefault(args.workload, {})[key] = untraced[0]["stored_digests"]
        Path(args.digests).write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")

    wall = statistics.median(record["wall"] for record in untraced)
    if not args.trace:
        values = {
            "wall_s": wall,
            "cpu_s": statistics.median(record["cpu"] for record in untraced),
            "setup_s": prepare_s + statistics.median(setups),
            "peak_rss_mb": peak_rss_mb(),
        }
        metrics = {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in values.items()
        }
    else:
        tracer = Tracer()
        traced = run_passes(workload, tracer, args.seconds / 2, 1, work_dir)
        reference = untraced[0]["digests"]
        for record in traced:
            attempted += record["attempted"]
            failed += record["failed"]
            # Tracing must not change a single bit of any row.
            failed += sum(
                count_mismatches(reference[key], record["digests"].get(key, []))
                for key in reference
            )
        metrics = {}
        for name in layer_metric_names():
            if name == "trace.overhead":
                value = statistics.median(record["wall"] for record in traced) / wall - 1.0
            else:
                value = statistics.median(record["layers"][name] for record in traced)
            metrics[name] = {"value": value, "unit": layer_unit(name)}
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(str(out_dir / f"spans-{args.workload}-seed{args.seed}.json"))

    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def run_all(args: argparse.Namespace) -> int:
    """Every workload in a fresh interpreter each, then one summary table."""
    combined: Dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for name in WORKLOADS:
        argv = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--digests", args.digests,
        ]
        if args.scale:
            argv += ["--scale", args.scale]
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"perfbench: {name} exited with {done.returncode}", file=sys.stderr)
            return done.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
            rows.append((name, metric, entry["value"], entry["unit"]))
        rows.append((name, "cells attempted", result["attempted"], "count"))
        rows.append((name, "cells failed", result["failed"], "count"))
    for name, metric, value, unit in rows:
        print(f"{name:<16} {metric:<28} {value:>14.6g} {unit}")
    print(json.dumps(combined))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("tiny", "small", "medium"),
        help="world scale (default: medium for the paper workloads, small for fleet-resume)",
    )
    parser.add_argument(
        "--digests", default=str(HERE / "digests.json"),
        help="canonical-row digests the paper workloads are checked against",
    )
    parser.add_argument(
        "--record-digests", action="store_true",
        help="store this run's row digests in --digests instead of trusting them",
    )
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    # A terminated run still unwinds: workers are stopped, scratch is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    cleared = isolate_environment()
    import_code_under_test()
    import numpy

    print(f"# nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={numpy.__version__} threads="
          + ",".join(f"{name}={os.environ[name]}" for name in THREAD_VARS)
          + f" cleared={cleared or '-'}")
    work_dir = ROOT / ".perfbench_work" / str(os.getpid())
    work_dir.mkdir(parents=True)
    try:
        result = measure(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

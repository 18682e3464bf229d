"""Scheduler backends: bitwise row equivalence, crash recovery, fleet knobs."""

from __future__ import annotations

import os
import queue
import sys
import threading

import pytest

from repro.api.registry import RegistryError
from repro.experiments.backends import (
    AUTHKEY_ENV,
    MultiprocessingBackend,
    SerialBackend,
    WorkQueueBackend,
    WorkQueueError,
    _Coordinator,
    _TaskDispatch,
    make_backend,
)
from repro.experiments.cache import SqliteCellCache
from repro.experiments.engine import EvaluationEngine, ExperimentSpec
from repro.experiments.workloads import standard_world


@pytest.fixture(scope="module")
def world():
    return standard_world("tiny", seed=5)


def _spec() -> ExperimentSpec:
    return ExperimentSpec(
        name="backend-test",
        mechanisms=["identity", "downsampling:factor=5", "pseudonyms:seed=1"],
        metrics=["point-retention", ("spatial-distortion", "area-coverage:cell_size_m=400.0")],
        worlds=["world"],
        seeds=[0, 1],
    )


@pytest.fixture(scope="module")
def serial_rows(world):
    return EvaluationEngine(backend=SerialBackend(), cache=False).run(
        _spec(), worlds={"world": world}
    )


class TestBackendEquivalence:
    def test_multiprocessing_matches_serial(self, world, serial_rows):
        rows = EvaluationEngine(backend=MultiprocessingBackend(workers=2), cache=False).run(
            _spec(), worlds={"world": world}
        )
        assert rows == serial_rows

    def test_work_queue_matches_serial(self, world, serial_rows):
        backend = WorkQueueBackend(workers=2, timeout_s=300.0)
        rows = EvaluationEngine(backend=backend, cache=False).run(
            _spec(), worlds={"world": world}
        )
        assert rows == serial_rows
        counts = backend.last_stats["worker_cell_counts"]
        assert sum(counts.values()) == len(serial_rows)
        assert backend.last_stats["requeues"] == 0

    def test_workers_kwarg_still_selects_multiprocessing(self):
        engine = EvaluationEngine(workers=3)
        assert isinstance(engine.backend, MultiprocessingBackend)
        assert engine.backend.workers == 3
        assert isinstance(EvaluationEngine().backend, SerialBackend)


class TestWorkQueueFaults:
    def test_killed_worker_is_requeued_once(self, world, serial_rows):
        backend = WorkQueueBackend(workers=1, timeout_s=300.0, fault_injection="crash-once")
        rows = EvaluationEngine(backend=backend, cache=False).run(
            _spec(), worlds={"world": world}
        )
        assert rows == serial_rows
        assert backend.last_stats["workers_crashed"] >= 1
        assert backend.last_stats["requeues"] >= 1

    def test_exhausted_requeues_surface_structured_failure(self, world):
        backend = WorkQueueBackend(workers=1, timeout_s=300.0, fault_injection="crash-always")
        with pytest.raises(WorkQueueError) as excinfo:
            EvaluationEngine(backend=backend, cache=False).run(
                _spec(), worlds={"world": world}
            )
        failures = excinfo.value.failures
        assert failures, "the error must carry structured per-task failures"
        assert failures[0]["attempts"] == 2  # first claim + one requeue
        assert len(failures[0]["workers"]) == 2
        assert "exhausted" in failures[0]["reason"]

    def test_worker_exception_propagates_with_traceback(self, world):
        spec = ExperimentSpec(
            name="bad-metric",
            mechanisms=["identity"],
            # area-coverage with a non-positive cell size raises inside the worker.
            metrics=["area-coverage:cell_size_m=-1.0"],
            worlds=["world"],
        )
        backend = WorkQueueBackend(workers=1, timeout_s=300.0)
        with pytest.raises(RuntimeError, match="work-queue worker"):
            EvaluationEngine(backend=backend, cache=False).run(spec, worlds={"world": world})


ROWS = [(0, {"metric": 1.0})]


def _coordinator(n_tasks, cell_keys=None, cache=None):
    """A coordinator over ``n_tasks`` one-cell payloads, plus its requeue log."""
    payloads = [
        ("world", "world", "full", 0, "raw", "identity", [(i, "none", None, ())], "batch")
        for i in range(n_tasks)
    ]
    requeued = []
    return _Coordinator(payloads, cell_keys, cache, 1, requeued.append), requeued


class TestCoordinator:
    """The coordinator's bookkeeping, driven message by message: no process,
    no socket, no clock but the ``now`` each call passes."""

    def test_claim_then_done(self):
        coordinator, requeued = _coordinator(1)
        coordinator.receive(("hello", "a"), 0.0)
        coordinator.receive(("claim", "a", [0]), 0.1)
        assert coordinator.tasks[0].state == "claimed" and coordinator.running()
        coordinator.receive(("done", "a", 0, ("rows", ROWS)), 0.2)
        assert not coordinator.running()
        assert coordinator.results() == [ROWS]
        assert requeued == []
        stats = coordinator.stats
        assert (stats["task_batches"], stats["rows_shipped"], stats["workers_seen"]) == (1, 1, 1)
        assert stats["worker_cell_counts"] == {"a": 1}

    def test_crash_eviction_requeues_then_exhausts_the_budget(self):
        coordinator, requeued = _coordinator(1)
        for worker in ("a", "b"):
            coordinator.receive(("hello", worker), 0.0)
            coordinator.receive(("claim", worker, [0]), 0.0)
            coordinator.evict(worker, "exit", "worker crashed (exit 17)")
        assert requeued == [[coordinator.tasks[0].entry]]  # once, after "a"
        assert not coordinator.running()
        assert coordinator.failures == [
            {
                "task": 0,
                "attempts": 2,
                "workers": ["a", "b"],
                "reason": "worker crashed (exit 17); requeue budget (1) exhausted",
            }
        ]
        with pytest.raises(WorkQueueError, match="gave up on 1 task") as excinfo:
            coordinator.results()
        assert excinfo.value.failures == coordinator.failures
        stats = coordinator.stats
        assert (stats["workers_crashed"], stats["requeues"]) == (2, 1)
        assert stats["evictions"] == [
            {"worker": "a", "detected": "exit", "tasks": [0]},
            {"worker": "b", "detected": "exit", "tasks": [0]},
        ]

    def test_claim_for_evicted_worker_is_requeued_at_once(self):
        """A dead worker's server thread can still take a batch after the
        eviction; the claim it posts goes straight back to the queue."""
        coordinator, requeued = _coordinator(2)
        coordinator.receive(("hello", "a"), 0.0)
        coordinator.evict("a", "exit", "worker crashed (exit -9)")
        coordinator.receive(("claim", "a", [1]), 0.5)
        assert requeued == [[coordinator.tasks[1].entry]]
        task = coordinator.tasks[1]
        assert (task.state, task.attempts, task.workers) == ("pending", 1, ["a"])
        assert coordinator.stats["evictions"] == [{"worker": "a", "detected": "exit", "tasks": []}]
        assert coordinator.silent_workers(100.0, 1.0) == []

    def test_only_worker_messages_refresh_the_heartbeat_clock(self):
        coordinator, _ = _coordinator(1)
        coordinator.receive(("hello", "a"), 0.0)
        coordinator.receive(("claim", "a", [0]), 5.0)  # posted by the coordinator
        assert coordinator.silent_workers(5.0, 2.0) == ["a"]
        coordinator.receive(("heartbeat", "a"), 5.0)
        assert coordinator.silent_workers(5.0, 2.0) == []

    def test_late_done_for_requeued_task_is_counted_once(self):
        coordinator, requeued = _coordinator(1)
        coordinator.receive(("hello", "a"), 0.0)
        coordinator.receive(("claim", "a", [0]), 0.0)
        assert coordinator.silent_workers(5.0, 2.0) == ["a"]
        coordinator.evict("a", "heartbeat", "worker silent for more than 2.0s")
        assert requeued == [[coordinator.tasks[0].entry]]
        coordinator.receive(("done", "a", 0, ("rows", ROWS)), 6.0)  # the host woke up
        coordinator.receive(("hello", "b"), 6.0)
        coordinator.receive(("claim", "b", [0]), 6.0)  # the requeued copy
        coordinator.receive(("done", "b", 0, ("rows", ROWS)), 6.5)
        assert coordinator.results() == [ROWS]
        stats = coordinator.stats
        assert (stats["rows_shipped"], stats["heartbeat_evictions"]) == (1, 1)
        assert stats["worker_cell_counts"] == {"a": 1}

    def test_ack_without_cached_row_raises(self, tmp_path):
        cache = SqliteCellCache(str(tmp_path / "cells.sqlite"))
        key_text = 'v2:["cell-0"]'
        try:
            coordinator, _ = _coordinator(1, cell_keys=[[key_text]], cache=cache)
            assert coordinator.tasks[0].entry[2] == (os.path.abspath(cache.path), (key_text,))
            coordinator.receive(("hello", "a"), 0.0)
            coordinator.receive(("claim", "a", [0]), 0.0)
            coordinator.receive(("done", "a", 0, ("cached", 1)), 0.1)
            assert coordinator.stats["cache_rows_written"] == 1
            with pytest.raises(WorkQueueError, match="is missing from") as excinfo:
                coordinator.results()
            assert excinfo.value.failures == [
                {"task": 0, "attempts": 1, "workers": ["a"],
                 "reason": "cache ack without cached row"}
            ]
            cache.put_serialized(key_text, {"metric": 1.0})
            assert coordinator.results() == [[(0, {"metric": 1.0})]]
        finally:
            cache.close()

    def test_partially_cacheable_task_ships_rows(self, tmp_path):
        cache = SqliteCellCache(str(tmp_path / "cells.sqlite"))
        coordinator, _ = _coordinator(2, cell_keys=[[None], ['v2:["cell-1"]']], cache=cache)
        assert [task.entry[2] is None for task in coordinator.tasks] == [True, False]
        coordinator, _ = _coordinator(1, cell_keys=[['v2:["cell-0"]']], cache=None)
        assert coordinator.tasks[0].entry[2] is None

    def test_timeout_error_lists_every_open_task(self):
        coordinator, _ = _coordinator(2)
        coordinator.receive(("hello", "a"), 0.0)
        coordinator.receive(("claim", "a", [0]), 0.0)
        error = coordinator.timeout_error(3.0)
        assert "2 of 2 tasks unfinished" in str(error)
        assert error.failures == [
            {"task": 0, "attempts": 1, "workers": ["a"], "reason": "timeout"},
            {"task": 1, "attempts": 0, "workers": [], "reason": "timeout"},
        ]

    def test_worker_exception_is_reraised(self):
        coordinator, _ = _coordinator(1)
        coordinator.receive(("claim", "a", [0]), 0.0)
        coordinator.receive(("error", "a", 0, "Traceback: boom"), 0.1)
        assert not coordinator.running()
        with pytest.raises(RuntimeError, match="raised in work-queue worker a:\nTraceback: boom"):
            coordinator.results()


class TestTaskDispatch:
    def test_concurrent_claims_hand_out_each_batch_once(self):
        """More claimers than cores, a tiny switch interval: every batch goes
        to exactly one claimer, its claim is posted under that claimer's id,
        and the one shutdown sentinel stops them all."""
        tasks, results = queue.Queue(), queue.Queue()
        dispatch = _TaskDispatch(tasks, results)
        for task_id in range(400):
            tasks.put([(task_id, b"", None)])
        got = {f"w{i}": [] for i in range(8)}

        def claimer(worker_id):
            while True:
                batch = dispatch.claim(worker_id)
                if batch is None:
                    return
                got[worker_id].extend(task_id for task_id, _, _ in batch)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=claimer, args=(w,), daemon=True) for w in got]
            for thread in threads:
                thread.start()
            tasks.put(None)
            for thread in threads:
                thread.join(timeout=30.0)
                assert not thread.is_alive(), "a claimer missed the sentinel"
        finally:
            sys.setswitchinterval(previous)
        assert sorted(t for ids in got.values() for t in ids) == list(range(400))
        posted = {w: [] for w in got}
        while not results.empty():
            kind, worker_id, task_ids = results.get_nowait()
            assert kind == "claim"
            posted[worker_id].extend(task_ids)
        assert posted == got


class TestFleetPath:
    """The multi-host surface: bind/advertise, batching, heartbeat eviction,
    and shared-cache direct writes — all pinned bitwise-identical to serial."""

    def test_bind_advertise_run_matches_serial(self, world, serial_rows):
        """Workers dial the advertised loopback address while the server
        binds every interface — the non-loopback path CI's fleet job uses."""
        backend = WorkQueueBackend(
            workers=2,
            timeout_s=300.0,
            bind_host="0.0.0.0",
            advertise_host="127.0.0.1",
        )
        rows = EvaluationEngine(backend=backend, cache=False).run(
            _spec(), worlds={"world": world}
        )
        assert rows == serial_rows
        stats = backend.last_stats
        assert stats["address"]["bind"] == "0.0.0.0"
        assert stats["address"]["advertise"] == "127.0.0.1"
        assert stats["address"]["port"] > 0
        assert stats["workers_seen"] >= 1

    def test_batched_pulls_claim_fewer_round_trips(self, world, serial_rows):
        backend = WorkQueueBackend(workers=1, timeout_s=300.0, batch=3)
        rows = EvaluationEngine(backend=backend, cache=False).run(
            _spec(), worlds={"world": world}
        )
        assert rows == serial_rows
        # 6 groups in batches of 3 → 2 claim round-trips, not 6.
        assert backend.last_stats["task_batches"] == 2

    def test_frozen_worker_is_evicted_by_heartbeat(self, world, serial_rows):
        """A worker that claims work, stops heartbeating and hangs — alive to
        poll(), dead to the run — must be evicted in ~heartbeat_timeout_s and
        its tasks requeued, not waited out until timeout_s."""
        backend = WorkQueueBackend(
            workers=1,
            timeout_s=120.0,
            heartbeat_s=0.1,
            heartbeat_timeout_s=0.8,
            fault_injection="freeze-once",
        )
        rows = EvaluationEngine(backend=backend, cache=False).run(
            _spec(), worlds={"world": world}
        )
        assert rows == serial_rows
        stats = backend.last_stats
        assert stats["heartbeat_evictions"] >= 1
        assert stats["requeues"] >= 1
        assert any(e["detected"] == "heartbeat" for e in stats["evictions"])

    def test_shared_cache_direct_writes_ship_no_rows(self, world, serial_rows, tmp_path):
        cache = SqliteCellCache(str(tmp_path / "cells.sqlite"))
        backend = WorkQueueBackend(workers=2, timeout_s=300.0)
        engine = EvaluationEngine(backend=backend, cache=cache)
        try:
            rows = engine.run(_spec(), worlds={"world": world})
            assert rows == serial_rows
            stats = backend.last_stats
            assert stats["rows_shipped"] == 0, "rows must land via the shared cache"
            assert stats["cache_rows_written"] == len(serial_rows)

            # A fresh engine on the same file: 100% hits, backend untouched.
            warm_backend = WorkQueueBackend(workers=2, timeout_s=300.0)
            warm_engine = EvaluationEngine(backend=warm_backend, cache=cache)
            warm_rows = warm_engine.run(_spec(), worlds={"world": world})
            assert warm_rows == serial_rows
            assert warm_engine.cache_hits == len(serial_rows)
            assert warm_engine.cache_misses == 0
            assert warm_backend.last_stats == {}, "warm run must not touch the queue"
        finally:
            cache.close()

    def test_workers_zero_waits_for_remote_bootstrap(
        self, world, serial_rows, monkeypatch
    ):
        """The fleet-coordinator contract: ``workers=0`` spawns nothing, the
        preset env authkey is honoured by the queue server, and a worker
        bootstrapped with only ``--connect host:port`` (no rank, no key on
        the command line) drains the whole run."""
        import socket
        import subprocess
        import sys
        import threading

        monkeypatch.setenv(AUTHKEY_ENV, "fleet-test-key")
        probe = socket.socket()
        try:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        finally:
            probe.close()
        backend = WorkQueueBackend(
            workers=0, timeout_s=120.0, port=port, heartbeat_s=0.2,
            heartbeat_timeout_s=2.0,
        )
        engine = EvaluationEngine(backend=backend, cache=False)
        box = []
        coordinator = threading.Thread(
            target=lambda: box.append(engine.run(_spec(), worlds={"world": world}))
        )
        coordinator.start()
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.experiments.worker",
                "--connect",
                f"127.0.0.1:{port}",
                "--heartbeat-s",
                "0.2",
            ],
            env=WorkQueueBackend._worker_env("fleet-test-key", None),
        )
        try:
            coordinator.join(timeout=110.0)
            assert not coordinator.is_alive(), "coordinator did not finish"
            assert proc.wait(timeout=10.0) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert box and box[0] == serial_rows
        stats = backend.last_stats
        assert stats["workers_seen"] == 1
        (worker_id,) = stats["worker_cell_counts"]
        assert socket.gethostname() in worker_id  # auto-generated host-pid id

    def test_uncacheable_cells_still_ship_rows(self, world, serial_rows, tmp_path):
        """cache=False means no keys: the direct-write path must stay off."""
        backend = WorkQueueBackend(workers=1, timeout_s=300.0)
        rows = EvaluationEngine(backend=backend, cache=False).run(
            _spec(), worlds={"world": world}
        )
        assert rows == serial_rows
        assert backend.last_stats["rows_shipped"] == len(serial_rows)
        assert backend.last_stats["cache_rows_written"] == 0


class TestMakeBackend:
    def test_spec_strings(self):
        assert isinstance(make_backend("serial"), SerialBackend)
        mp = make_backend("multiprocessing:workers=4")
        assert isinstance(mp, MultiprocessingBackend) and mp.workers == 4
        wq = make_backend("work-queue:workers=3,max_requeues=2")
        assert isinstance(wq, WorkQueueBackend)
        assert wq.workers == 3 and wq.max_requeues == 2

    def test_default_workers_inherited(self):
        assert make_backend(None, default_workers=1).name == "serial"
        assert make_backend(None, default_workers=4).workers == 4
        assert make_backend("mp", default_workers=5).workers == 5

    def test_instances_pass_through(self):
        backend = SerialBackend()
        assert make_backend(backend) is backend

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown scheduler backend"):
            make_backend("carrier-pigeon")
        with pytest.raises(TypeError):
            make_backend(42)

    def test_invalid_fault_injection_rejected(self):
        with pytest.raises(ValueError, match="fault_injection"):
            WorkQueueBackend(fault_injection="typo")
        with pytest.raises(ValueError, match="fault_injection"):
            WorkQueueBackend(fault_injection="crash-pre-claim")

    @pytest.mark.parametrize(
        "spec, unknown, accepted",
        [
            ("serial:workers=3", "workers", "none"),
            ("multiprocessing:workers=4,batch=2", "batch", "workers"),
            ("work-queue:wrokers=2", "wrokers", "workers"),
            ("work-queue:workers=2,claim_grace_s=0.2", "claim_grace_s", "heartbeat_s"),
            ("work-queue:poll_interval_s=0.1", "poll_interval_s", "max_requeues"),
            ("work-queue:bind_host=0.0.0.0", "bind_host", "bind"),
        ],
    )
    def test_unknown_spec_parameters_rejected(self, spec, unknown, accepted):
        with pytest.raises(RegistryError, match="unknown parameter") as excinfo:
            make_backend(spec)
        named, _, listed = str(excinfo.value).partition("accepted:")
        assert unknown in named
        assert accepted in [name.strip() for name in listed.split(",")]

    def test_fleet_spec_knobs(self):
        wq = make_backend(
            "work-queue:bind=0.0.0.0,advertise=10.0.0.5,port=9000,workers=0,batch=4"
        )
        assert isinstance(wq, WorkQueueBackend)
        assert wq.bind_host == "0.0.0.0"
        assert wq.advertise_host == "10.0.0.5"
        assert wq.port == 9000
        assert wq.workers == 0  # fleet-coordinator mode: remote workers only
        assert wq.batch == 4

    def test_advertise_defaults(self):
        # A wildcard bind is not dialable: advertise falls back to loopback.
        assert WorkQueueBackend(bind_host="0.0.0.0").advertise_host == "127.0.0.1"
        assert WorkQueueBackend(bind_host="10.1.2.3").advertise_host == "10.1.2.3"
        assert WorkQueueBackend().advertise_host == "127.0.0.1"

    def test_invalid_fleet_knobs_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            WorkQueueBackend(workers=-1)
        with pytest.raises(ValueError, match="batch"):
            WorkQueueBackend(batch=0)
        with pytest.raises(ValueError, match="heartbeat"):
            WorkQueueBackend(heartbeat_s=2.0, heartbeat_timeout_s=1.0)

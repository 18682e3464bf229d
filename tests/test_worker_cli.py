"""Worker CLI argument/env handling and backend_check failure paths.

The happy paths — real worker subprocesses evaluating real payloads — are
covered end-to-end by ``tests/test_backends.py`` and the CI equivalence
jobs.  This module pins the edges around them: the worker's argparse
surface, the missing-authkey exit, every connect-failure exit (bad host,
refused port, wrong authkey, coordinator death mid-run), the
hello/claim/done/error queue protocol (against a manager server hosted in a
test thread), the shared-cache direct-write path, and every
``backend_check`` branch that returns non-zero.
"""

from __future__ import annotations

import pickle
import queue
import socket
import subprocess
import sys
import threading

import pytest

from repro.experiments import backend_check, backends, worker
from repro.experiments.backends import (
    AUTHKEY_ENV,
    CRASH_ENV,
    MultiprocessingBackend,
    SerialBackend,
    WorkQueueBackend,
)
from repro.experiments.cache import SqliteCellCache

_AUTHKEY = "test-worker-authkey"


@pytest.fixture()
def queue_server(monkeypatch):
    """A live queue-manager server in a daemon thread, env authkey set.

    Yields ``(host, port, task_queue, result_queue)`` — the queues are the
    real local objects, so tests can seed tasks and inspect results without
    going through proxies themselves.  The server is the coordinator's own
    (``backends._make_queue_manager``), claim endpoint included.
    """
    tasks: "queue.Queue" = queue.Queue()
    results: "queue.Queue" = queue.Queue()
    manager_cls = backends._make_queue_manager(tasks, results)
    manager = manager_cls(
        address=("127.0.0.1", 0), authkey=_AUTHKEY.encode("ascii")
    )
    server = manager.get_server()

    def _serve():
        try:
            server.serve_forever()
        except SystemExit:  # serve_forever exits via sys.exit on stop_event
            pass

    thread = threading.Thread(target=_serve, daemon=True)
    thread.start()
    monkeypatch.setenv(AUTHKEY_ENV, _AUTHKEY)
    monkeypatch.delenv(CRASH_ENV, raising=False)
    host, port = server.address
    yield host, port, tasks, results
    stop = getattr(server, "stop_event", None)
    if stop is not None:
        stop.set()


def _worker_argv(host: str, port: int, rank: str = "3"):
    # A long heartbeat keeps the result queue deterministic in protocol tests.
    return [
        "--connect",
        f"{host}:{port}",
        "--rank",
        rank,
        "--heartbeat-s",
        "30",
        "--retries",
        "0",
    ]


class TestWorkerArgs:
    def test_no_address_is_exit_2(self, capsys):
        assert worker.main([]) == 2
        assert "--connect" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "value", ["no-port", "host:", ":123", "host:notaport", ""]
    )
    def test_malformed_connect_rejected(self, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            worker.main(["--connect", value])
        assert excinfo.value.code == 2
        assert "HOST:PORT" in capsys.readouterr().err

    def test_missing_authkey_is_exit_2_not_a_crash(self, monkeypatch, capsys):
        """Without the env authkey the worker must refuse to even connect."""
        monkeypatch.delenv(AUTHKEY_ENV, raising=False)
        assert worker.main(_worker_argv("127.0.0.1", 1, rank="7")) == 2
        err = capsys.readouterr().err
        assert "worker 7" in err
        assert AUTHKEY_ENV in err


class TestWorkerConnectFailures:
    """Every connect failure must exit non-zero with a clean message —
    never hang in the manager handshake (the satellite fix this pins)."""

    def test_unresolvable_host_is_exit_3(self, monkeypatch, capsys):
        monkeypatch.setenv(AUTHKEY_ENV, _AUTHKEY)
        argv = [
            "--connect",
            "nosuchhost.invalid:9999",
            "--rank",
            "w",
            "--retries",
            "0",
            "--connect-timeout-s",
            "2",
        ]
        assert worker.main(argv) == 3
        assert "could not connect" in capsys.readouterr().err

    def test_refused_port_retries_then_exit_3(self, monkeypatch, capsys):
        monkeypatch.setenv(AUTHKEY_ENV, _AUTHKEY)
        probe = socket.socket()
        try:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        finally:
            probe.close()  # nothing listens on `port` now
        argv = [
            "--connect",
            f"127.0.0.1:{port}",
            "--rank",
            "w",
            "--retries",
            "1",
            "--retry-backoff-s",
            "0.05",
            "--connect-timeout-s",
            "2",
        ]
        assert worker.main(argv) == 3
        assert "after 2 attempts" in capsys.readouterr().err

    def test_wrong_authkey_is_exit_3_without_retry(
        self, queue_server, monkeypatch, capsys
    ):
        host, port, _, _ = queue_server
        monkeypatch.setenv(AUTHKEY_ENV, "not-the-real-key")
        assert worker.main(_worker_argv(host, port, rank="w")) == 3
        assert "authentication failed" in capsys.readouterr().err

    def test_coordinator_death_mid_run_is_exit_4(self, monkeypatch, capsys):
        """A worker blocked in its claim call whose coordinator dies must
        exit 4 ("lost connection"), not hang forever."""
        monkeypatch.setenv(AUTHKEY_ENV, _AUTHKEY)
        server_script = (
            "import queue\n"
            "from repro.experiments.backends import _make_queue_manager\n"
            "M = _make_queue_manager(queue.Queue(), queue.Queue())\n"
            f"m = M(address=('127.0.0.1', 0), authkey={_AUTHKEY.encode('ascii')!r})\n"
            "s = m.get_server()\n"
            "print(s.address[1], flush=True)\n"
            "s.serve_forever()\n"
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", server_script],
            stdout=subprocess.PIPE,
            text=True,
            env=WorkQueueBackend._worker_env(_AUTHKEY, None),
        )
        try:
            port = int(proc.stdout.readline())
            exit_code: list = []
            runner = threading.Thread(
                target=lambda: exit_code.append(
                    worker.main(
                        [
                            "--connect",
                            f"127.0.0.1:{port}",
                            "--rank",
                            "w",
                            "--heartbeat-s",
                            "0.1",
                            "--retries",
                            "0",
                        ]
                    )
                ),
                daemon=True,
            )
            runner.start()
            # Wait for the worker's hello before killing the server: a kill
            # mid-handshake would (correctly) exit 3, not 4.
            from multiprocessing.managers import BaseManager

            observer_cls = type("_Observer", (BaseManager,), {})
            observer_cls.register("get_result_queue")
            observer = observer_cls(
                address=("127.0.0.1", port), authkey=_AUTHKEY.encode("ascii")
            )
            observer.connect()
            assert observer.get_result_queue().get(timeout=30.0) == ("hello", "w")
            assert runner.is_alive(), "worker exited before the coordinator died"
            proc.kill()
            proc.wait()
            runner.join(timeout=10.0)
            assert not runner.is_alive(), "worker hung after coordinator death"
            assert exit_code == [4]
            assert "lost connection" in capsys.readouterr().err
        finally:
            proc.stdout.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()


def _drain(results: "queue.Queue"):
    """All queued result messages, heartbeats filtered out."""
    messages = []
    while True:
        try:
            message = results.get_nowait()
        except queue.Empty:
            return messages
        if message[0] != "heartbeat":
            messages.append(message)


class TestWorkerProtocol:
    def test_shutdown_sentinel_returns_zero(self, queue_server):
        host, port, tasks, results = queue_server
        tasks.put(None)
        assert worker.main(_worker_argv(host, port)) == 0
        assert _drain(results) == [("hello", "3")]

    def test_batch_is_claimed_once_then_done_per_task(self, queue_server, monkeypatch):
        host, port, tasks, results = queue_server
        rows = [(0, {"metric": 1.0}), (1, {"metric": 2.0})]
        seen = []

        def fake_evaluate(payload):
            seen.append(payload)
            return rows

        from repro.experiments import engine

        monkeypatch.setattr(engine, "_evaluate_group", fake_evaluate)
        tasks.put(
            [
                (5, pickle.dumps("payload-a"), None),
                (6, pickle.dumps("payload-b"), None),
            ]
        )
        tasks.put(None)
        assert worker.main(_worker_argv(host, port, rank="2")) == 0
        assert seen == ["payload-a", "payload-b"]
        assert _drain(results) == [
            ("hello", "2"),
            ("claim", "2", [5, 6]),
            ("done", "2", 5, ("rows", rows)),
            ("done", "2", 6, ("rows", rows)),
        ]

    def test_cache_directive_writes_rows_and_ships_only_an_ack(
        self, queue_server, monkeypatch, tmp_path
    ):
        host, port, tasks, results = queue_server
        rows = [(0, {"metric": 1.0}), (1, {"metric": 2.0})]

        from repro.experiments import engine

        monkeypatch.setattr(engine, "_evaluate_group", lambda payload: rows)
        cache_path = str(tmp_path / "cells.sqlite")
        key_texts = ("v2:[\"cell-a\"]", "v2:[\"cell-b\"]")
        tasks.put([(5, pickle.dumps("payload"), (cache_path, key_texts))])
        tasks.put(None)
        assert worker.main(_worker_argv(host, port, rank="2")) == 0
        assert _drain(results) == [
            ("hello", "2"),
            ("claim", "2", [5]),
            ("done", "2", 5, ("cached", 2)),  # the ~100-byte ack, no rows
        ]
        store = SqliteCellCache(cache_path)
        try:
            assert store.get_serialized(key_texts[0]) == {"metric": 1.0}
            assert store.get_serialized(key_texts[1]) == {"metric": 2.0}
        finally:
            store.close()

    def test_one_sentinel_stops_every_waiting_worker(self, queue_server):
        """Each claim that takes the shutdown ``None`` puts it back, so the
        coordinator needs no count of the workers it has to stop."""
        host, port, tasks, results = queue_server
        exit_codes: list = []
        runners = [
            threading.Thread(
                target=lambda rank=rank: exit_codes.append(
                    worker.main(_worker_argv(host, port, rank=rank))
                ),
                daemon=True,
            )
            for rank in ("a", "b")
        ]
        for runner in runners:
            runner.start()
        hellos = {results.get(timeout=30.0) for _ in runners}
        assert hellos == {("hello", "a"), ("hello", "b")}
        tasks.put(None)
        for runner in runners:
            runner.join(timeout=30.0)
            assert not runner.is_alive(), "a waiting worker missed the sentinel"
        assert exit_codes == [0, 0]
        assert _drain(results) == []
        assert tasks.get_nowait() is None  # put back for whoever claims next

    def test_default_worker_id_is_host_and_pid(self, queue_server):
        host, port, tasks, results = queue_server
        tasks.put(None)
        argv = ["--connect", f"{host}:{port}", "--heartbeat-s", "30", "--retries", "0"]
        assert worker.main(argv) == 0
        (hello,) = _drain(results)
        assert hello[0] == "hello"
        assert socket.gethostname() in hello[1]

    def test_heartbeats_flow_while_waiting(self, queue_server, monkeypatch):
        host, port, tasks, results = queue_server

        from repro.experiments import engine

        def slow_evaluate(payload):
            import time

            time.sleep(0.5)
            return [(0, {"metric": 0.0})]

        monkeypatch.setattr(engine, "_evaluate_group", slow_evaluate)
        tasks.put([(1, pickle.dumps("payload"), None)])
        tasks.put(None)
        argv = [
            "--connect",
            f"{host}:{port}",
            "--rank",
            "2",
            "--heartbeat-s",
            "0.05",
            "--retries",
            "0",
        ]
        assert worker.main(argv) == 0
        heartbeats = 0
        while True:
            try:
                message = results.get_nowait()
            except queue.Empty:
                break
            if message[0] == "heartbeat":
                assert message[1] == "2"
                heartbeats += 1
        assert heartbeats >= 2, "expected heartbeats during the slow evaluation"

    def test_bad_payload_reports_error_and_exits_1(self, queue_server):
        host, port, tasks, results = queue_server
        tasks.put([(9, b"definitely not a pickle", None)])
        assert worker.main(_worker_argv(host, port, rank="4")) == 1
        messages = _drain(results)
        assert messages[0] == ("hello", "4")
        assert messages[1] == ("claim", "4", [9])
        kind, worker_id, task_id, tb = messages[2]
        assert (kind, worker_id, task_id) == ("error", "4", 9)
        assert "Traceback" in tb

    def test_evaluation_exception_carries_traceback(self, queue_server, monkeypatch):
        host, port, tasks, results = queue_server

        def boom(payload):
            raise ValueError("injected evaluation failure")

        from repro.experiments import engine

        monkeypatch.setattr(engine, "_evaluate_group", boom)
        tasks.put([(1, pickle.dumps("payload"), None)])
        assert worker.main(_worker_argv(host, port, rank="0")) == 1
        messages = _drain(results)
        kind, _, _, tb = messages[2]
        assert kind == "error"
        assert "injected evaluation failure" in tb


class TestBackendCheckArgs:
    def test_mode_is_required(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            backend_check.main([])
        assert excinfo.value.code == 2

    def test_cache_mode_requires_file_and_expect(self, capsys):
        for argv in (
            ["cache", "--expect", "cold"],
            ["cache", "--cache-file", "x.sqlite"],
            ["cache", "--cache-file", "x.sqlite", "--expect", "lukewarm"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                backend_check.main(argv)
            assert excinfo.value.code == 2

    def test_check_spec_shape(self):
        spec = backend_check.check_spec()
        assert len(spec.mechanisms) == 3
        assert len(spec.metrics) == 2
        assert spec.seeds == [0, 1]


class TestRowsIdentical:
    def test_identical_rows_pass(self, capsys):
        assert backend_check._rows_identical([{"a": 1}], [{"a": 1}], "mp")
        assert "ok   mp: 1 rows identical" in capsys.readouterr().out

    def test_differing_row_is_printed(self, capsys):
        rows = [{"a": 1}, {"a": 2}]
        assert not backend_check._rows_identical(rows, [{"a": 1}, {"a": 99}], "wq")
        out = capsys.readouterr().out
        assert "FAIL wq" in out
        assert "first differing row 1" in out

    def test_row_count_mismatch_is_printed(self, capsys):
        assert not backend_check._rows_identical([{"a": 1}, {"a": 2}], [{"a": 1}], "wq")
        assert "row counts differ: serial 2 vs wq 1" in capsys.readouterr().out


class _FakeEngine:
    """Stands in for EvaluationEngine: rows per backend, no processes."""

    rows_for = {}

    def __init__(self, backend=None, cache=None):
        self.backend = backend

    def run(self, spec):
        backend = self.backend
        if getattr(backend, "fault_injection", None) and _FakeEngine.crash_stats:
            backend.last_stats = dict(_FakeEngine.crash_stats)
        return list(_FakeEngine.rows_for[type(backend)])


class TestEquivalenceFailurePaths:
    """run_equivalence's counting logic, with the engine stubbed out — the
    real multi-process happy path runs in test_backends.py and CI."""

    def _patch(self, monkeypatch, wq_rows, crash_stats):
        base = [{"cell": 0}, {"cell": 1}]
        _FakeEngine.rows_for = {
            SerialBackend: base,
            MultiprocessingBackend: list(base),
            WorkQueueBackend: wq_rows,
        }
        _FakeEngine.crash_stats = crash_stats
        monkeypatch.setattr(backend_check, "EvaluationEngine", _FakeEngine)

    def test_all_identical_with_crash_stats_passes(self, monkeypatch, capsys):
        self._patch(
            monkeypatch,
            wq_rows=[{"cell": 0}, {"cell": 1}],
            crash_stats={"workers_crashed": 1, "requeues": 1},
        )
        assert backend_check.run_equivalence("tiny", workers=2, timeout_s=1.0) == 0
        out = capsys.readouterr().out
        assert "3/3 backends produced identical rows" in out
        assert "killed-worker requeue exercised" in out

    def test_row_mismatch_fails(self, monkeypatch, capsys):
        self._patch(
            monkeypatch,
            wq_rows=[{"cell": 0}, {"cell": 99}],
            crash_stats={"workers_crashed": 1, "requeues": 1},
        )
        assert backend_check.run_equivalence("tiny", workers=2, timeout_s=1.0) == 1
        out = capsys.readouterr().out
        assert "FAIL work-queue" in out

    def test_missing_crash_stats_fail_even_with_identical_rows(
        self, monkeypatch, capsys
    ):
        """Identical rows are not enough: the crash run must actually have
        crashed and requeued, else the recovery path went unexercised."""
        self._patch(
            monkeypatch,
            wq_rows=[{"cell": 0}, {"cell": 1}],
            crash_stats=None,  # leaves last_stats = {}
        )
        assert backend_check.run_equivalence("tiny", workers=2, timeout_s=1.0) == 1
        out = capsys.readouterr().out
        assert "expected at least one crash and one requeue" in out


class TestCacheCheckPaths:
    def test_cold_warm_then_stale_cold(self, tmp_path, capsys):
        """One persistent file across three invocations: a fresh file is
        cold (0), the same file is warm (0), and claiming it is *still* cold
        must fail — the hits prove persistence."""
        cache_file = str(tmp_path / "cells.sqlite")
        assert backend_check.main(["cache", "--cache-file", cache_file, "--expect", "cold"]) == 0
        assert backend_check.main(["cache", "--cache-file", cache_file, "--expect", "warm"]) == 0
        assert backend_check.main(["cache", "--cache-file", cache_file, "--expect", "cold"]) == 1
        out = capsys.readouterr().out
        assert "ok   cold run matched" in out
        assert "ok   warm run matched" in out
        assert "FAIL: cold run expected 0 hits" in out

    def test_warm_on_fresh_cache_fails(self, tmp_path, capsys):
        assert backend_check.main(
            ["cache", "--cache-file", str(tmp_path / "fresh.sqlite"), "--expect", "warm"]
        ) == 1
        assert "FAIL: warm run expected 100% hits" in capsys.readouterr().out

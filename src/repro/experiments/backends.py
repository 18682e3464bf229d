"""Scheduler backends: *how* the evaluation engine executes cell groups.

The :class:`~repro.experiments.engine.EvaluationEngine` reduces a spec to a
list of picklable *group payloads* (one per (world, seed, mechanism) — see
``engine._evaluate_group``) and hands them to a :class:`SchedulerBackend`:

* :class:`SerialBackend` — evaluate in-process, in order.
* :class:`MultiprocessingBackend` — the historical ``multiprocessing.Pool``
  fan-out (fork where available).
* :class:`WorkQueueBackend` — a fleet-capable work queue: a TCP manager
  serves a task queue and a result queue, worker processes — local
  subprocesses the backend spawns, or remote interpreters bootstrapped with
  ``python -m repro.experiments.worker --connect host:port`` — claim
  *batches* of pickled payloads and push compact results back.  Liveness is
  heartbeat-based (a frozen or killed host is evicted in seconds, its
  claimed tasks requeued under a bounded budget), and when the engine's
  cell cache is a shared :class:`~repro.experiments.cache.SqliteCellCache`
  workers write finished rows straight into it and ship only ~100-byte
  acks back over the wire.

All backends return results in payload order and execute the exact same
``_evaluate_group`` code, so rows are bitwise-identical across backends (the
backend-equivalence and fleet-equivalence CI jobs and
``tests/test_backends.py`` pin this).

Backends are selectable by spec string wherever the engine is constructed::

    EvaluationEngine(backend="serial")
    EvaluationEngine(backend="multiprocessing:workers=4")
    EvaluationEngine(backend="work-queue:workers=4")
    EvaluationEngine(backend="work-queue:bind=0.0.0.0,advertise=10.0.0.5,workers=0")

The last form is a *fleet coordinator*: it binds every interface, spawns no
local workers, and waits for remote hosts to connect with the one-line
bootstrap (the authkey travels via the :data:`AUTHKEY_ENV` environment
variable, never on the command line)::

    REPRO_WORKQUEUE_AUTHKEY=<hex> python -m repro.experiments.worker \
        --connect 10.0.0.5:9000
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import pickle
import queue
import secrets
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from multiprocessing.managers import BaseManager
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple, Type

from .cache import CellCacheStore, SqliteCellCache

__all__ = [
    "SchedulerBackend",
    "SerialBackend",
    "MultiprocessingBackend",
    "WorkQueueBackend",
    "WorkQueueError",
    "make_backend",
    "AUTHKEY_ENV",
    "CRASH_ENV",
    "LOG_DIR_ENV",
]

#: Environment variable carrying the work-queue authkey (hex) to workers.
AUTHKEY_ENV = "REPRO_WORKQUEUE_AUTHKEY"

#: Fault-injection hook: a worker started with this set misbehaves on its
#: first batch — ``"claim"`` exits hard right after claiming it,
#: ``"freeze"`` stops heartbeating and hangs forever while the process stays
#: alive (the frozen remote host only heartbeat eviction can catch).  How
#: the CI equivalence jobs and the tests exercise the recovery paths.
CRASH_ENV = "REPRO_WORKQUEUE_CRASH_ON_CLAIM"

#: When set, spawned workers write stdout/stderr to ``<dir>/worker-<id>.log``
#: instead of inheriting the coordinator's streams (CI uploads these on
#: backend_check failure).
LOG_DIR_ENV = "REPRO_WORKER_LOG_DIR"

GroupResult = List[Tuple[int, Dict[str, Any]]]

#: Per-payload serialized cell-key texts (``None`` for uncacheable cells),
#: aligned with the payload's cell list — how the engine tells a backend
#: which rows may be written straight into a shared cache by workers.
CellKeys = Optional[Sequence[Optional[Sequence[Optional[str]]]]]


def _evaluate(payload: Tuple) -> GroupResult:
    from .engine import _evaluate_group

    return _evaluate_group(payload)


class SchedulerBackend:
    """Executes group payloads; returns one result list per payload, in order.

    ``cell_keys``/``cache`` are an optional engine → backend channel: the
    serialized cell-cache key of every cell in every payload and the engine's
    cache store.  Backends that can complete the storage loop remotely (the
    work queue writing rows into a shared :class:`SqliteCellCache` from the
    workers) use them; in-process backends ignore them.
    """

    name: str = "?"

    def map_groups(
        self,
        payloads: Sequence[Tuple],
        cell_keys: CellKeys = None,
        cache: Optional[CellCacheStore] = None,
    ) -> List[GroupResult]:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SerialBackend(SchedulerBackend):
    """In-process, in-order evaluation (the ``workers=1`` path)."""

    name = "serial"

    def map_groups(
        self,
        payloads: Sequence[Tuple],
        cell_keys: CellKeys = None,
        cache: Optional[CellCacheStore] = None,
    ) -> List[GroupResult]:
        return [_evaluate(payload) for payload in payloads]


class MultiprocessingBackend(SchedulerBackend):
    """The historical ``multiprocessing.Pool`` fan-out.

    Prefers ``fork`` (no re-import cost, inherits the loaded registries) and
    falls back to the platform default where fork is unavailable.  A single
    payload — or ``workers=1`` — short-circuits to in-process evaluation.
    """

    name = "multiprocessing"

    def __init__(self, workers: int = 2) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.workers = int(workers)

    def map_groups(
        self,
        payloads: Sequence[Tuple],
        cell_keys: CellKeys = None,
        cache: Optional[CellCacheStore] = None,
    ) -> List[GroupResult]:
        if self.workers <= 1 or len(payloads) <= 1:
            return [_evaluate(payload) for payload in payloads]
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context("fork" if "fork" in methods else None)
        with context.Pool(min(self.workers, len(payloads))) as pool:
            return pool.map(_evaluate, payloads)

    def __repr__(self) -> str:
        return f"MultiprocessingBackend(workers={self.workers})"


class WorkQueueError(RuntimeError):
    """A work-queue run could not complete; carries structured failure info.

    Attributes
    ----------
    failures:
        One dict per undeliverable or failed task:
        ``{"task": int, "attempts": int, "workers": [ids], "reason": str}``.
    """

    def __init__(self, message: str, failures: List[Dict[str, Any]]) -> None:
        super().__init__(message)
        self.failures = failures


#: One task entry on the wire: ``(task_id, pickled_payload, cache_directive)``
#: where the directive is ``None`` (ship rows back) or ``(sqlite_path,
#: (key_text_per_cell, ...))`` (write rows into the shared cache, ship an
#: ack).  Task-queue items are *batches*: lists of entries claimed in one
#: round-trip.
TaskEntry = Tuple[int, bytes, Optional[Tuple[str, Tuple[Optional[str], ...]]]]

#: Seconds the coordinator waits for a worker message before it checks
#: worker liveness and the deadline.
_POLL_S = 0.05


@dataclass
class _TaskDispatch:
    """The claim endpoint the queue manager serves to workers.

    :meth:`claim` runs in the coordinator, on the calling worker's server
    thread, and posts the claim *before* the batch leaves, so every task is
    always queued or claimed.  A claim that takes the ``None`` shutdown
    sentinel puts it back, so one sentinel wakes every waiting worker.
    """

    task_queue: "queue.Queue"
    result_queue: "queue.Queue"

    def claim(self, worker_id: str) -> Optional[List[TaskEntry]]:
        batch = self.task_queue.get()
        if batch is None:
            self.task_queue.put(None)
            return None
        self.result_queue.put(("claim", worker_id, [task_id for task_id, _, _ in batch]))
        return batch


def _make_queue_manager(
    task_queue: "queue.Queue", result_queue: "queue.Queue"
) -> Type[BaseManager]:
    """A fresh manager class per run: serves the claim endpoint and the
    result queue over TCP.

    The class is local so concurrent :class:`WorkQueueBackend` runs never
    share a registry (``BaseManager.register`` mutates the *class*).
    """

    class _QueueManager(BaseManager):
        pass

    dispatch = _TaskDispatch(task_queue, result_queue)
    _QueueManager.register("get_dispatch", callable=lambda: dispatch)
    _QueueManager.register("get_result_queue", callable=lambda: result_queue)
    return _QueueManager


@dataclass
class _Task:
    """The coordinator's one record per task."""

    entry: TaskEntry
    state: str = "pending"  # pending | claimed | done | failed
    attempts: int = 0
    workers: List[str] = field(default_factory=list)  # last one holds a claim
    result: Optional[Tuple[str, Any]] = None  # ("rows", rows) | ("cached", n)


class _Coordinator:
    """The work queue's bookkeeping, free of processes and sockets.

    It takes worker messages (:meth:`receive`) and liveness verdicts
    (:meth:`evict`), keeps one :class:`_Task` record per payload and the
    :attr:`WorkQueueBackend.last_stats` counters, and hands requeued
    batches to ``requeue``.  Two liveness rules hold: a claim posted for an
    already evicted worker is requeued at once, under the same budget; and
    only messages a worker sends itself (hello, heartbeat, done, error)
    refresh its heartbeat clock — claims are posted by the coordinator's own
    server thread.

    A task gets a shared-cache directive only when ``cache`` is a shared
    :class:`SqliteCellCache` and *every* cell of its payload has a
    serialized key — a partially cacheable group still ships rows, so one
    task never mixes the two result channels.
    """

    def __init__(
        self,
        payloads: Sequence[Tuple],
        cell_keys: CellKeys,
        cache: Optional[CellCacheStore],
        max_requeues: int,
        requeue: Callable[[List[TaskEntry]], None],
    ) -> None:
        self.payloads, self.cache = payloads, cache
        shared = os.path.abspath(cache.path) if isinstance(cache, SqliteCellCache) else None
        self.tasks: List[_Task] = []
        for task_id, payload in enumerate(payloads):
            keys = tuple(cell_keys[task_id] or ()) if cell_keys is not None else ()
            directive = (shared, keys) if shared and keys and None not in keys else None
            blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
            self.tasks.append(_Task((task_id, blob, directive)))
        self.unfinished = len(self.tasks)  # tasks neither done nor failed
        self.max_requeues = max_requeues
        self._requeue = requeue
        self.last_seen: Dict[str, float] = {}
        self.evicted: Set[str] = set()
        self.failures: List[Dict[str, Any]] = []
        self.error: Optional[Tuple[int, str, str]] = None
        self.stats: Dict[str, Any] = dict(
            worker_cell_counts={}, requeues=0, workers_crashed=0, heartbeat_evictions=0,
            evictions=[], workers_seen=0, task_batches=0, rows_shipped=0, cache_rows_written=0,
        )

    def running(self) -> bool:
        return self.error is None and not self.failures and self.unfinished > 0

    def _failure(self, task: _Task, reason: str) -> Dict[str, Any]:
        return dict(task=task.entry[0], attempts=task.attempts, workers=list(task.workers),
                    reason=reason)

    def _requeue_or_fail(self, task: _Task, cause: str) -> None:
        if task.attempts <= self.max_requeues:
            task.state = "pending"
            self._requeue([task.entry])
            self.stats["requeues"] += 1
        else:
            task.state = "failed"
            self.unfinished -= 1
            reason = f"{cause}; requeue budget ({self.max_requeues}) exhausted"
            self.failures.append(self._failure(task, reason))

    def receive(self, message: Tuple, now: float) -> None:
        kind, worker_id = message[0], str(message[1])
        if kind == "claim":
            self.stats["task_batches"] += 1
            for task_id in message[2]:
                task = self.tasks[task_id]
                if task.state not in ("pending", "claimed"):
                    continue  # a stale copy of a finished task
                task.attempts += 1
                task.workers.append(worker_id)
                task.state = "claimed"
                if worker_id in self.evicted:
                    self._requeue_or_fail(task, f"claimed by evicted worker {worker_id}")
            return
        if worker_id not in self.last_seen:
            self.stats["workers_seen"] += 1
        self.last_seen[worker_id] = now
        if kind == "done":
            _, _, task_id, result = message
            task = self.tasks[task_id]
            if task.state not in ("pending", "claimed"):
                return  # a late duplicate: the row count is taken once
            task.state, task.result = "done", result
            self.unfinished -= 1
            cached = result[0] == "cached"
            n_rows = int(result[1]) if cached else len(result[1])
            self.stats["cache_rows_written" if cached else "rows_shipped"] += n_rows
            cells = self.stats["worker_cell_counts"]
            cells[worker_id] = cells.get(worker_id, 0) + n_rows
        elif kind == "error":
            self.error = (message[2], worker_id, message[3])
        # "hello" and "heartbeat" only refresh the clock.

    def silent_workers(self, now: float, timeout_s: float) -> List[str]:
        """Workers holding claims that have not been heard from for ``timeout_s``."""
        holders = {task.workers[-1] for task in self.tasks if task.state == "claimed"}
        return sorted(w for w in holders if now - self.last_seen.get(w, now) > timeout_s)

    def evict(self, worker_id: str, detected: str, cause: str) -> None:
        """Drop ``worker_id`` (``detected`` is ``"exit"`` or ``"heartbeat"``)
        and requeue, or fail, every task it holds."""
        self.evicted.add(worker_id)
        self.stats["workers_crashed" if detected == "exit" else "heartbeat_evictions"] += 1
        held = [t for t in self.tasks if t.state == "claimed" and t.workers[-1] == worker_id]
        for task in held:
            self._requeue_or_fail(task, cause)
        self.stats["evictions"].append(
            {"worker": worker_id, "detected": detected, "tasks": [t.entry[0] for t in held]}
        )

    def timeout_error(self, timeout_s: Optional[float]) -> WorkQueueError:
        open_tasks = [t for t in self.tasks if t.state in ("pending", "claimed")]
        return WorkQueueError(
            f"work queue timed out after {timeout_s}s with {len(open_tasks)} of "
            f"{len(self.tasks)} tasks unfinished",
            [self._failure(task, "timeout") for task in open_tasks],
        )

    def results(self) -> List[GroupResult]:
        """Every task's rows in task order, once the run has finished (or
        the worker exception / exhausted-budget failures); acked rows are
        read back from the shared cache by their serialized keys."""
        if self.error is not None:
            task_id, worker_id, traceback_text = self.error
            raise RuntimeError(
                f"cell group {task_id} raised in work-queue worker {worker_id}:\n"
                f"{traceback_text}"
            )
        if self.failures:
            detail = "; ".join(
                f"task {f['task']} after {f['attempts']} attempts "
                f"(workers {f['workers']})" for f in self.failures
            )
            raise WorkQueueError(
                f"work queue gave up on {len(self.failures)} task(s): {detail}",
                self.failures,
            )
        results: List[GroupResult] = []
        for task in self.tasks:
            assert task.result is not None, "results() before every task is done"
            result_kind, value = task.result
            if result_kind == "rows":
                results.append(value)
                continue
            cache = self.cache
            assert isinstance(cache, SqliteCellCache) and task.entry[2] is not None
            _, key_texts = task.entry[2]
            gathered: GroupResult = []
            for (index, _, _, _), key_text in zip(self.payloads[task.entry[0]][6], key_texts):
                assert key_text is not None
                row = cache.get_serialized(key_text)
                if row is None:
                    raise WorkQueueError(
                        f"worker acked {value} cached rows for task {task.entry[0]} "
                        f"but key {key_text!r} is missing from {cache.path!r}",
                        [self._failure(task, "cache ack without cached row")],
                    )
                gathered.append((index, row))
            results.append(gathered)
        return results


class WorkQueueBackend(SchedulerBackend):
    """A fleet-capable work queue over TCP (local subprocesses or real hosts).

    The coordinator starts a :class:`multiprocessing.managers.BaseManager`
    server on ``(bind_host, port)`` exposing a claim endpoint and a result
    queue, enqueues every payload *pickled* in batches of ``batch``
    entries, and launches ``workers`` fresh local interpreters via
    ``sys.executable -m repro.experiments.worker --connect advertise:port``
    — the exact bootstrap a remote host uses, so the local and multi-host
    paths are one code path.  ``workers=0`` spawns nothing and waits for
    remote workers to connect (the fleet-coordinator mode).

    A worker takes a batch with one ``claim(worker_id)`` call, which runs in
    the coordinator and records the claim before the batch leaves, so every
    task is always *pending* (queued), *claimed* (held by one worker),
    *done* or *failed*.

    Liveness is heartbeat-based: every worker runs a heartbeat thread that
    stamps the result queue every ``heartbeat_s`` seconds (its hello, done
    and error messages also count).  A worker holding claimed tasks that
    has not been heard from for ``heartbeat_timeout_s`` is *evicted* — its
    process is killed if local, its claimed tasks are requeued at most
    ``max_requeues`` times, and the eviction is recorded in
    :attr:`last_stats` — so a frozen or unplugged host costs seconds, not
    the whole run ``timeout_s``.  Local worker process exits are detected
    by ``poll()`` even faster.  In-task Python exceptions are *not* retried
    (they are deterministic); they re-raise in the coordinator with the
    worker traceback.

    When the engine's cache store is a shared :class:`SqliteCellCache` and
    every cell of a payload is cacheable, the task carries the cells'
    serialized key texts instead of expecting rows back: the worker writes
    each finished row directly into the sqlite file (safe under concurrent
    writers) and pushes a compact ``("cached", n)`` ack; the coordinator
    gathers the rows from the cache.  Result shipping drops from pickled row
    payloads to ~100 bytes per task — :attr:`last_stats` proves it with
    ``rows_shipped`` / ``cache_rows_written``.

    After a successful run :attr:`last_stats` holds::

        {
          "worker_cell_counts": {worker_id: n_cells},
          "requeues": int, "workers_crashed": int,
          "heartbeat_evictions": int,
          "evictions": [{"worker", "detected", "tasks"}],
          "workers_seen": int, "task_batches": int,
          "rows_shipped": int, "cache_rows_written": int,
          "address": {"bind", "advertise", "port"},
        }

    ``fault_injection`` is a test/CI hook: ``"crash-once"`` starts the
    *initial* workers with :data:`CRASH_ENV` set (they die right after their
    first claim; replacements are clean), ``"crash-always"`` poisons
    replacements too, which exhausts the requeue budget deterministically,
    and ``"freeze-once"`` makes them claim a batch, stop heartbeating and
    hang — alive to ``poll()``, dead to the heartbeat — so only eviction
    can recover the run.
    """

    name = "work-queue"

    _FAULT_MODES = {
        None: (None, None),
        "crash-once": ("claim", None),
        "crash-always": ("claim", "claim"),
        "freeze-once": ("freeze", None),
    }

    def __init__(
        self,
        workers: int = 2,
        max_requeues: int = 1,
        timeout_s: Optional[float] = 600.0,
        fault_injection: Optional[str] = None,
        bind_host: str = "127.0.0.1",
        advertise_host: Optional[str] = None,
        port: int = 0,
        batch: int = 1,
        heartbeat_s: float = 1.0,
        heartbeat_timeout_s: float = 10.0,
        log_dir: Optional[str] = None,
    ) -> None:
        if workers < 0:
            raise ValueError("workers must be at least 0 (0 = remote workers only)")
        if fault_injection not in self._FAULT_MODES:
            choices = ", ".join(repr(k) for k in self._FAULT_MODES if k)
            raise ValueError(
                f"unknown fault_injection {fault_injection!r}; choose None, {choices}"
            )
        if batch < 1:
            raise ValueError("batch must be at least 1")
        if heartbeat_s <= 0 or heartbeat_timeout_s <= heartbeat_s:
            raise ValueError(
                "need 0 < heartbeat_s < heartbeat_timeout_s, got "
                f"{heartbeat_s} / {heartbeat_timeout_s}"
            )
        self.workers = int(workers)
        self.max_requeues = int(max_requeues)
        self.timeout_s = timeout_s
        self.fault_injection = fault_injection
        self.bind_host = str(bind_host)
        if advertise_host is None:
            # Binding every interface still needs a concrete address workers
            # can dial; loopback is the only universally correct default.
            advertise_host = "127.0.0.1" if bind_host in ("0.0.0.0", "::") else bind_host
        self.advertise_host = str(advertise_host)
        self.port = int(port)
        self.batch = int(batch)
        self.heartbeat_s = float(heartbeat_s)
        self.heartbeat_timeout_s = float(heartbeat_timeout_s)
        self.log_dir = log_dir if log_dir is not None else os.environ.get(LOG_DIR_ENV) or None
        self.last_stats: Dict[str, Any] = {}

    # -- worker process management ------------------------------------------------

    @staticmethod
    def _worker_env(authkey_hex: str, crash: Optional[str]) -> Dict[str, str]:
        env = dict(os.environ)
        # The worker interpreter must resolve the same `repro` package as the
        # parent regardless of how the parent found it (installed, src/ on
        # PYTHONPATH, ...): prepend the package root explicitly.
        package_root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        parts = [package_root] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
        env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(parts))
        env[AUTHKEY_ENV] = authkey_hex
        if crash:
            env[CRASH_ENV] = crash
        else:
            env.pop(CRASH_ENV, None)
        return env

    def _spawn_worker(
        self, worker_id: str, port: int, authkey_hex: str, crash: Optional[str]
    ) -> subprocess.Popen:
        argv = [
            sys.executable,
            "-m",
            "repro.experiments.worker",
            "--connect",
            f"{self.advertise_host}:{port}",
            "--rank",
            worker_id,
            "--heartbeat-s",
            repr(self.heartbeat_s),
        ]
        env = self._worker_env(authkey_hex, crash)
        if self.log_dir:
            os.makedirs(self.log_dir, exist_ok=True)
            log_path = os.path.join(self.log_dir, f"worker-{worker_id}.log")
            with open(log_path, "ab") as log_file:
                # The child keeps its duplicated fd; ours closes with the block.
                return subprocess.Popen(argv, env=env, stdout=log_file, stderr=log_file)
        return subprocess.Popen(argv, env=env)

    # -- the run loop -------------------------------------------------------------

    def map_groups(
        self,
        payloads: Sequence[Tuple],
        cell_keys: CellKeys = None,
        cache: Optional[CellCacheStore] = None,
    ) -> List[GroupResult]:
        address: Dict[str, Any] = {
            "bind": self.bind_host, "advertise": self.advertise_host, "port": None
        }
        task_queue: "queue.Queue" = queue.Queue()
        result_queue: "queue.Queue" = queue.Queue()
        coordinator = _Coordinator(payloads, cell_keys, cache, self.max_requeues, task_queue.put)
        if not payloads:
            self.last_stats = {**coordinator.stats, "address": address}
            return []

        manager_class = _make_queue_manager(task_queue, result_queue)
        # Local runs get a fresh random key per run; a fleet coordinator
        # honours a preset key from the environment, since remote hosts
        # must be handed the same value to pass the handshake.
        authkey_hex = os.environ.get(AUTHKEY_ENV) or secrets.token_hex(16)
        manager = manager_class(
            address=(self.bind_host, self.port), authkey=authkey_hex.encode("ascii")
        )
        # Any: the Server type (and its stop_event/listener) is not in typeshed.
        server: Any = manager.get_server()

        def _serve() -> None:
            try:
                server.serve_forever()
            except SystemExit:
                pass  # serve_forever sys.exit(0)s on stop_event; keep the thread quiet

        threading.Thread(target=_serve, daemon=True).start()
        port = int(server.address[1])
        address["port"] = port

        entries = [task.entry for task in coordinator.tasks]
        for start in range(0, len(entries), self.batch):
            task_queue.put(entries[start : start + self.batch])

        crash, crash_respawn = self._FAULT_MODES[self.fault_injection]
        procs: Dict[str, subprocess.Popen] = {}
        ranks = itertools.count()
        deadline = None if self.timeout_s is None else time.monotonic() + self.timeout_s
        try:
            while coordinator.running():
                # Start the local workers, then replace the ones that died.
                while len(procs) < min(self.workers, coordinator.unfinished):
                    worker_id = str(next(ranks))
                    procs[worker_id] = self._spawn_worker(worker_id, port, authkey_hex, crash)
                crash = crash_respawn
                try:
                    coordinator.receive(result_queue.get(timeout=_POLL_S), time.monotonic())
                    continue  # drain eagerly before liveness checks
                except queue.Empty:
                    pass
                now = time.monotonic()
                for worker_id, proc in list(procs.items()):
                    if proc.poll() is not None:
                        del procs[worker_id]
                        cause = f"worker crashed (exit {proc.returncode})"
                        coordinator.evict(worker_id, "exit", cause)
                # Heartbeat eviction: a frozen host never exits, so poll()
                # alone would wait out timeout_s.
                for worker_id in coordinator.silent_workers(now, self.heartbeat_timeout_s):
                    proc = procs.pop(worker_id, None)
                    if proc is not None:
                        proc.kill()
                        proc.wait()
                    cause = f"worker silent for more than {self.heartbeat_timeout_s}s"
                    coordinator.evict(worker_id, "heartbeat", cause + " (heartbeat eviction)")
                if deadline is not None and now > deadline:
                    raise coordinator.timeout_error(self.timeout_s)
        finally:
            self._shutdown(procs, task_queue, server)

        results = coordinator.results()
        cells = sorted(coordinator.stats["worker_cell_counts"].items())
        self.last_stats = {**coordinator.stats, "worker_cell_counts": dict(cells), "address": address}
        return results

    def _shutdown(
        self,
        procs: Mapping[str, "subprocess.Popen"],
        task_queue: "queue.Queue",
        server: Any,  # multiprocessing.managers Server (no public type)
    ) -> None:
        try:  # drop stale or abandoned batches; one sentinel wakes every worker
            while True:
                task_queue.get_nowait()
        except queue.Empty:
            task_queue.put(None)
        deadline = time.monotonic() + 5.0
        for proc in procs.values():
            try:
                proc.wait(timeout=max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        try:
            server.stop_event.set()
            server.listener.close()
        except Exception:
            pass  # best-effort: the server thread is a daemon either way

    def __repr__(self) -> str:
        return (
            f"WorkQueueBackend(workers={self.workers}, max_requeues={self.max_requeues}, "
            f"bind={self.bind_host!r}, advertise={self.advertise_host!r}, "
            f"batch={self.batch})"
        )


#: Work-queue spec keys: the constructor's arguments, with ``bind`` and
#: ``advertise`` standing for ``bind_host`` and ``advertise_host``.
_WORK_QUEUE_SPEC_KEYS = ("workers", "max_requeues", "timeout_s", "fault_injection", "bind",
                         "advertise", "port", "batch", "heartbeat_s", "heartbeat_timeout_s",
                         "log_dir")


def make_backend(backend: Any, default_workers: int = 1) -> SchedulerBackend:
    """Resolve the engine's ``backend`` argument to a backend instance.

    ``None`` keeps the historical behaviour: serial for ``workers=1``, a
    multiprocessing pool otherwise.  Strings are specs — ``"serial"``,
    ``"multiprocessing:workers=4"`` (alias ``"mp"``), or
    ``"work-queue:workers=4"`` (alias ``"workqueue"``); a spec without
    ``workers`` inherits ``default_workers`` (floored at 2 for the parallel
    backends, which otherwise degenerate to serial).  The work queue accepts
    the fleet knobs ``bind``/``advertise``/``port`` (spelled ``bind_host``/
    ``advertise_host``/``port`` as constructor arguments), ``batch``,
    ``heartbeat_s``/``heartbeat_timeout_s`` and ``workers=0`` (no local
    workers; remote hosts connect with the worker bootstrap one-liner).  Any
    other key raises :class:`~repro.api.registry.RegistryError` naming the
    accepted ones::

        make_backend("work-queue:bind=0.0.0.0,advertise=10.0.0.5,workers=0,batch=4")
    """
    if isinstance(backend, SchedulerBackend):
        return backend
    if backend is None:
        if default_workers > 1:
            return MultiprocessingBackend(workers=default_workers)
        return SerialBackend()
    if isinstance(backend, str):
        from ..api.registry import RegistryError, check_spec_params, parse_spec

        name, params = parse_spec(backend)
        name = name.lower()
        if name == "serial":
            check_spec_params(backend, params, ())
            return SerialBackend()
        workers = int(params.get("workers", max(default_workers, 2)))
        if name in ("multiprocessing", "mp", "pool"):
            check_spec_params(backend, params, ("workers",))
            return MultiprocessingBackend(workers=workers)
        if name in ("work-queue", "workqueue", "queue"):
            check_spec_params(backend, params, _WORK_QUEUE_SPEC_KEYS)
            params["workers"] = workers
            # Spec spelling: bind=/advertise= (short, address-like); the
            # constructor spells them out.
            if "bind" in params:
                params["bind_host"] = str(params.pop("bind"))
            if "advertise" in params:
                params["advertise_host"] = str(params.pop("advertise"))
            return WorkQueueBackend(**params)
        raise RegistryError(
            f"unknown scheduler backend {backend!r}; choose 'serial', "
            "'multiprocessing[:workers=N]' or 'work-queue[:workers=N]'"
        )
    raise TypeError(
        f"backend must be a SchedulerBackend, spec string or None, "
        f"got {type(backend).__name__}"
    )

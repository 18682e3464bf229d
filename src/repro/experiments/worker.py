"""Fleet worker: ``python -m repro.experiments.worker --connect HOST:PORT``.

One worker process of a :class:`~repro.experiments.backends.WorkQueueBackend`
run — a local subprocess the backend spawned, or a remote host bootstrapped
with the one-liner above (the authkey arrives via the
:data:`~repro.experiments.backends.AUTHKEY_ENV` environment variable, never
on the command line).  The worker connects to the coordinator's queue
manager over TCP — with a connect timeout and bounded retry-with-backoff, so
a wrong authkey, an unreachable port or a gone coordinator exits non-zero
with a clean message instead of hanging in the manager handshake — then:

1. announces itself (``("hello", worker_id)``) and starts a daemon thread
   stamping ``("heartbeat", worker_id)`` every ``--heartbeat-s`` seconds, so
   the coordinator can tell a *slow* worker from a dead one,
2. takes a *batch* ``[(task_id, pickled_payload, cache_directive), ...]``
   with one ``claim(worker_id)`` call on the coordinator's dispatch
   endpoint; the call runs in the coordinator, which records
   ``("claim", worker_id, [task_ids])`` before it hands the batch over, so
   no task is ever out of the queue yet unclaimed (``None`` is the shutdown
   sentinel),
3. evaluates each payload with the engine's ``_evaluate_group`` (the exact
   code every other backend runs), and per task either

   * ships the rows back — ``("done", worker_id, task_id, ("rows", rows))``
     — or, when the task carries a cache directive ``(sqlite_path,
     key_texts)``, writes each row straight into that shared
     :class:`~repro.experiments.cache.SqliteCellCache` file and ships only
     a compact ack: ``("done", worker_id, task_id, ("cached", n_rows))``;
   * an in-task exception becomes ``("error", worker_id, task_id,
     traceback)``, which the coordinator re-raises.

Exit codes: ``0`` clean shutdown, ``1`` in-task error (after reporting it),
``2`` usage/environment error, ``3`` could not connect (bad address, refused
port, wrong authkey — after retries), ``4`` lost the coordinator mid-run.
"""

from __future__ import annotations

import argparse
import os
import pickle
import socket
import sys
import threading
import time
import traceback
from typing import Any, List, Optional, Tuple

#: Exit codes (documented above; the CLI tests pin them).
EXIT_OK = 0
EXIT_TASK_ERROR = 1
EXIT_USAGE = 2
EXIT_CONNECT = 3
EXIT_LOST_COORDINATOR = 4


def _parse_connect(value: str) -> Tuple[str, int]:
    host, sep, port_text = value.rpartition(":")
    if not sep or not host or not port_text.isdigit():
        raise argparse.ArgumentTypeError(
            f"--connect wants HOST:PORT, got {value!r}"
        )
    return host, int(port_text)


def _connect_manager(
    host: str,
    port: int,
    authkey: bytes,
    connect_timeout_s: float,
    retries: int,
    retry_backoff_s: float,
    worker_id: str,
) -> Any:
    """Connect to the coordinator's manager; raise SystemExit(3) on failure.

    The stock ``BaseManager.connect`` blocks forever on an unresponsive
    address and retries nothing, so: first a cheap raw-socket probe with an
    explicit timeout (closed on every path), then the real handshake under a
    temporary global socket timeout (restored before any proxy is created —
    the work loop's blocking ``claim`` call must never time out).  A wrong
    authkey fails the handshake deterministically and is not retried;
    transient errors (refused, unreachable, reset) back off exponentially up
    to ``retries`` times.
    """
    import multiprocessing
    import queue

    from .backends import _make_queue_manager

    # The coordinator's own manager class; on this side only its typeids count.
    manager_class = _make_queue_manager(queue.Queue(), queue.Queue())

    last_error: Optional[BaseException] = None
    for attempt in range(retries + 1):
        if attempt:
            time.sleep(retry_backoff_s * (2 ** (attempt - 1)))
        try:
            with socket.create_connection((host, port), timeout=connect_timeout_s):
                pass  # reachability probe only; the manager dials its own socket
        except OSError as error:
            last_error = error
            continue
        manager = manager_class(address=(host, port), authkey=authkey)
        previous_timeout = socket.getdefaulttimeout()
        socket.setdefaulttimeout(connect_timeout_s)
        try:
            manager.connect()
            return manager
        except multiprocessing.AuthenticationError:
            print(
                f"worker {worker_id}: authentication failed connecting to "
                f"{host}:{port} (wrong or stale authkey)",
                file=sys.stderr,
            )
            raise SystemExit(EXIT_CONNECT)
        except (OSError, EOFError) as error:
            last_error = error
        finally:
            socket.setdefaulttimeout(previous_timeout)
    print(
        f"worker {worker_id}: could not connect to coordinator at {host}:{port} "
        f"after {retries + 1} attempts: {last_error}",
        file=sys.stderr,
    )
    raise SystemExit(EXIT_CONNECT)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--connect",
        type=_parse_connect,
        metavar="HOST:PORT",
        help="coordinator address (the bootstrap form)",
    )
    parser.add_argument(
        "--rank",
        default=None,
        help="worker id for reporting (default: HOSTNAME-PID)",
    )
    parser.add_argument(
        "--heartbeat-s",
        type=float,
        default=1.0,
        help="liveness heartbeat interval in seconds (default 1.0)",
    )
    parser.add_argument(
        "--connect-timeout-s",
        type=float,
        default=10.0,
        help="per-attempt connect timeout (default 10s)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=5,
        help="connect retries after the first attempt (default 5)",
    )
    parser.add_argument(
        "--retry-backoff-s",
        type=float,
        default=0.5,
        help="initial retry backoff, doubled per attempt (default 0.5s)",
    )
    args = parser.parse_args(argv)

    if args.connect is None:
        parser.print_usage(sys.stderr)
        print("worker: need --connect HOST:PORT", file=sys.stderr)
        return EXIT_USAGE
    host, port = args.connect
    worker_id = (
        str(args.rank)
        if args.rank is not None
        else f"{socket.gethostname()}-{os.getpid()}"
    )

    from .backends import AUTHKEY_ENV, CRASH_ENV

    authkey_hex = os.environ.get(AUTHKEY_ENV, "")
    if not authkey_hex:
        print(f"worker {worker_id}: {AUTHKEY_ENV} not set", file=sys.stderr)
        return EXIT_USAGE
    crash_mode = os.environ.get(CRASH_ENV)  # "claim" | "freeze" | unset

    try:
        manager = _connect_manager(
            host,
            port,
            authkey_hex.encode("ascii"),
            connect_timeout_s=args.connect_timeout_s,
            retries=max(0, args.retries),
            retry_backoff_s=max(0.0, args.retry_backoff_s),
            worker_id=worker_id,
        )
    except SystemExit as bailout:
        return int(bailout.code or 0)
    dispatch = manager.get_dispatch()
    results = manager.get_result_queue()

    heartbeat_stop = threading.Event()

    def _heartbeat() -> None:
        # BaseProxy connections are per-thread, so this thread quietly dials
        # its own socket on the first put — no sharing with the work loop.
        while not heartbeat_stop.wait(args.heartbeat_s):
            try:
                results.put(("heartbeat", worker_id))
            except (OSError, EOFError, BrokenPipeError):
                return  # coordinator gone; the work loop will notice and exit

    heartbeat_thread = threading.Thread(target=_heartbeat, daemon=True)

    from .cache import SqliteCellCache
    from .engine import _evaluate_group

    stores: dict = {}  # sqlite path -> SqliteCellCache, memoized per worker

    try:
        results.put(("hello", worker_id))
        heartbeat_thread.start()
        while True:
            batch = dispatch.claim(worker_id)
            if batch is None:
                return EXIT_OK
            if crash_mode == "claim":
                # Fault injection: die the way a killed host would — no
                # cleanup, no exception message, a bare non-zero exit.
                os._exit(17)
            if crash_mode == "freeze":
                # Fault injection: the frozen host — claimed work, process
                # alive, heartbeat silent.  Only heartbeat eviction can
                # recover the run.
                heartbeat_stop.set()
                while True:
                    time.sleep(3600.0)
            for task_id, blob, directive in batch:
                try:
                    rows = _evaluate_group(pickle.loads(blob))
                except BaseException:
                    results.put(("error", worker_id, task_id, traceback.format_exc()))
                    return EXIT_TASK_ERROR
                if directive is not None:
                    # Shared-cache direct write: land the rows in the sqlite
                    # file next to the data, ship only an ack (~100 bytes).
                    cache_path, key_texts = directive
                    store = stores.get(cache_path)
                    if store is None:
                        store = stores[cache_path] = SqliteCellCache(cache_path)
                    for (_, row), key_text in zip(rows, key_texts):
                        store.put_serialized(key_text, row)
                    results.put(("done", worker_id, task_id, ("cached", len(rows))))
                else:
                    results.put(("done", worker_id, task_id, ("rows", rows)))
    except (EOFError, ConnectionError, BrokenPipeError, OSError) as error:
        print(
            f"worker {worker_id}: lost connection to coordinator at "
            f"{host}:{port}: {error!r}",
            file=sys.stderr,
        )
        return EXIT_LOST_COORDINATOR
    finally:
        heartbeat_stop.set()
        for store in stores.values():
            store.close()


if __name__ == "__main__":
    sys.exit(main())

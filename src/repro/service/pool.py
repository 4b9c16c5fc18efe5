"""A supervised process pool that cannot hang on a dead worker.

``multiprocessing.Pool.map`` blocks forever if a worker is OOM-killed
or calls ``os._exit`` — the result it was going to send never arrives
and nothing notices.  :class:`SupervisedPool` runs one process per
task and supervises the result pipes directly with
``multiprocessing.connection.wait``: a worker that dies closes its
pipe, the EOF wakes the supervisor immediately, and the failure
surfaces as :class:`~repro.errors.WorkerError` naming the task.

Guarantees:

* **no hang** — every outcome (result, exception, death, timeout,
  cancellation) is a pipe event or a bounded wait;
* **exceptions with context** — a task that raises inside the worker
  re-surfaces as ``WorkerError`` carrying the original traceback text
  plus the task index (callers append seeds etc. via ``describe``);
* **per-task timeouts** — a task exceeding ``task_timeout`` is
  terminated and reported (never silently retried: a task that timed
  out once will time out again);
* **capped restarts** — a worker *death* (crash, not exception) is
  retried with a fresh process up to ``max_restarts`` times per task;
* **cancellation** — with a ``cancel`` token, the wait wakes every
  ``CANCEL_POLL_SECONDS``; once the token fires, every worker is
  terminated and :meth:`SupervisedPool.run` returns ``None``;
* **cleanup** — on any raise, all still-running workers are terminated
  before the error propagates.

Workers are created with the fork start method where available so
large read-only arguments (the CSR graph) are shared copy-on-write;
elsewhere arguments are pickled (correct, slower).
"""

from __future__ import annotations

import multiprocessing
import sys
import time
import traceback
from collections import deque
from multiprocessing import connection

from repro.errors import ConfigError, WorkerError

__all__ = ["SupervisedPool"]

# How long a cancelled run can go unnoticed while its tasks run.
CANCEL_POLL_SECONDS = 0.05


def _pool_child(fn, payload, conn) -> None:
    """Worker entry point: report exactly one outcome on the pipe."""
    try:
        result = fn(payload)
    except BaseException:
        exc = sys.exc_info()[1]
        try:
            conn.send(("error", repr(exc), traceback.format_exc()))
        except Exception:
            pass  # parent sees EOF and reports a death instead
    else:
        conn.send(("ok", result))
    finally:
        conn.close()


def _default_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        return multiprocessing.get_context()


class SupervisedPool:
    """Run tasks across supervised worker processes.

    Parameters
    ----------
    max_workers:
        concurrent worker processes (each task gets a fresh process).
    task_timeout:
        per-task wall-clock budget in seconds; ``None`` disables.
    max_restarts:
        restarts allowed per task after a worker death.
    registry:
        optional :class:`repro.obs.MetricsRegistry` (duck-typed) that
        receives the pool's supervision counters — tasks dispatched,
        worker restarts, timeouts, worker exceptions: what the
        supervisor observed.  What the tasks counted comes back in
        their results (see :func:`repro.parallel.run_parallel_walk`).
    """

    def __init__(
        self,
        max_workers: int,
        task_timeout: float | None = None,
        max_restarts: int = 2,
        context=None,
        registry=None,
    ) -> None:
        if max_workers <= 0:
            raise ConfigError("max_workers must be positive")
        if task_timeout is not None and task_timeout <= 0:
            raise ConfigError("task_timeout must be positive")
        if max_restarts < 0:
            raise ConfigError("max_restarts must be non-negative")
        self.max_workers = max_workers
        self.task_timeout = task_timeout
        self.max_restarts = max_restarts
        self._ctx = context if context is not None else _default_context()
        self.registry = registry
        self.restarts = 0  # total worker restarts across run() calls

    def _count(self, name: str, help_text: str, amount: int = 1) -> None:
        if self.registry is not None:
            self.registry.counter(name, help_text).inc(amount)

    # ------------------------------------------------------------------
    def _check_cross_process(self, fn) -> None:
        """Reject callables that cannot cross the process boundary.

        Under ``fork`` a lambda or closure happens to work because the
        child inherits memory; under ``spawn``/``forkserver`` the same
        call dies at pickling time with an opaque error, usually on the
        one platform the author didn't test.  The static analyzer
        (rule RK310 in :mod:`repro.lint`) flags this at review time;
        this is the runtime backstop, raising a named error *before*
        any worker is spawned instead of after.
        """
        qualname = getattr(fn, "__qualname__", "")
        if "<lambda>" in qualname or "<locals>" in qualname:
            if self._ctx.get_start_method() != "fork":
                raise ConfigError(
                    f"task callable {qualname!r} is not module-level; the "
                    f"{self._ctx.get_start_method()!r} start method pickles "
                    "callables by qualified name, so only module-level "
                    "functions can run in workers"
                )

    def run(self, fn, payloads, describe=None, cancel=None) -> list | None:
        """Execute ``fn(payload)`` for every payload; ordered results.

        ``describe(index)`` customises how a failed task is named in
        the raised :class:`WorkerError` (e.g. shard seed).  Raises on
        the first unrecoverable failure after terminating all other
        workers; partial results are discarded — the caller retries or
        sheds at its own layer.  ``cancel`` (an object with
        ``.cancelled``) is polled every :data:`CANCEL_POLL_SECONDS`
        while tasks run; once it fires, every worker is terminated and
        ``None`` is returned — at once if it fired before the call.
        """
        self._check_cross_process(fn)
        if cancel is not None and cancel.cancelled:
            return None
        payloads = list(payloads)
        self._count("pool_tasks", "tasks dispatched to workers", len(payloads))
        describe = describe if describe is not None else (
            lambda index: f"task {index}"
        )
        results: list = [None] * len(payloads)
        attempts = [0] * len(payloads)
        pending = deque(range(len(payloads)))
        running: dict = {}  # conn -> (index, process, started_at)
        try:
            while pending or running:
                self._spawn_ready(fn, payloads, pending, running, attempts)
                ready = connection.wait(
                    list(running), timeout=self._wait_timeout(running, cancel)
                )
                if cancel is not None and cancel.cancelled:
                    return None  # the finally below terminates the workers
                if not ready:
                    self._reap_timeouts(running, describe)
                    continue
                for conn in ready:
                    index, process, _started = running.pop(conn)
                    self._collect(
                        fn, conn, index, process, results, pending,
                        attempts, describe,
                    )
        finally:
            for conn, (_index, process, _started) in running.items():
                process.terminate()
                process.join()
                conn.close()
        return results

    # ------------------------------------------------------------------
    def _spawn_ready(self, fn, payloads, pending, running, attempts) -> None:
        while pending and len(running) < self.max_workers:
            index = pending.popleft()
            attempts[index] += 1
            parent_conn, child_conn = self._ctx.Pipe(duplex=False)
            process = self._ctx.Process(
                target=_pool_child,
                args=(fn, payloads[index], child_conn),
                daemon=True,
            )
            process.start()
            child_conn.close()
            running[parent_conn] = (index, process, time.monotonic())

    def _wait_timeout(self, running, cancel) -> float | None:
        waits = [] if cancel is None else [CANCEL_POLL_SECONDS]
        if self.task_timeout is not None:
            now = time.monotonic()
            waits += [
                max(self.task_timeout - (now - started), 0.0)
                for _index, _process, started in running.values()
            ]
        return min(waits, default=None)

    def _reap_timeouts(self, running, describe) -> None:
        if self.task_timeout is None:
            return  # woken to poll a cancel token
        now = time.monotonic()
        for conn, (index, process, started) in list(running.items()):
            if now - started >= self.task_timeout:
                del running[conn]
                process.terminate()
                process.join()
                conn.close()
                self._count("pool_timeouts", "tasks killed at task_timeout")
                raise WorkerError(
                    f"{describe(index)} exceeded its "
                    f"{self.task_timeout:.3f}s timeout and was terminated",
                    shard=index,
                    kind="timeout",
                )

    def _collect(
        self, fn, conn, index, process, results, pending, attempts, describe
    ) -> None:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            message = None
        finally:
            conn.close()
        process.join()

        if message is None:
            # Death without a report (os._exit, OOM kill, SIGKILL).
            exitcode = process.exitcode
            if attempts[index] <= self.max_restarts:
                self.restarts += 1
                self._count("pool_restarts", "worker deaths retried")
                pending.append(index)
                return
            raise WorkerError(
                f"worker running {describe(index)} died with exit code "
                f"{exitcode} after {attempts[index]} attempt(s) "
                f"(max_restarts={self.max_restarts} exhausted)",
                shard=index,
                kind="died",
            )
        if message[0] == "ok":
            results[index] = message[1]
            return
        _tag, exc_repr, worker_tb = message
        self._count("pool_worker_errors", "tasks that raised in a worker")
        raise WorkerError(
            f"{describe(index)} raised {exc_repr}\n"
            f"--- worker traceback ---\n{worker_tb}",
            shard=index,
            kind="exception",
            worker_traceback=worker_tb,
        )

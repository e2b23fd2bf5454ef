"""Shared ingestion worker pool of the discovery daemon.

One bounded set of daemon threads drains batch work for *every*
session, mirroring how :mod:`repro.core.parallel` multiplexes shard
payloads onto one process pool: the unit of work a thread executes is a
session's columnized-batch discovery (the same
``discover_batch_columns`` payload the parallel driver ships to pool
workers), and fairness comes from sessions re-enqueueing themselves
after each batch rather than draining their whole backlog at once.

Threads (not processes) carry the daemon's ingestion because sessions
are long-lived and mutate shared running schemas under locks; the
process pool's fork-inherited snapshot model cannot host that.  The
heavy per-batch work drops the GIL inside numpy kernels, so ``N``
workers still overlap distinct sessions' batches.
"""

from __future__ import annotations

import queue
import threading
from typing import Callable


class SessionWorkerPool:
    """Fixed-size thread pool draining session work items in FIFO order."""

    def __init__(self, workers: int) -> None:
        self._tasks: "queue.Queue[Callable[[], None] | None]" = queue.Queue()
        self._leaked_lock = threading.Lock()
        self._leaked = 0
        self._threads = [
            threading.Thread(
                target=self._run,
                name=f"pghive-serve-worker-{index}",
                daemon=True,
            )
            for index in range(max(workers, 1))
        ]
        for thread in self._threads:
            thread.start()

    def dispatch(self, task: Callable[[], None]) -> None:
        """Enqueue one work item; returns immediately.

        Named ``dispatch`` rather than ``submit`` deliberately: the
        ``worker-closure`` lint rule polices ``submit()`` call sites for
        *process*-pool pickle safety, and this thread pool runs in-process
        callables (bound drain methods) by design.
        """
        self._tasks.put(task)

    def _run(self) -> None:
        while True:
            task = self._tasks.get()
            try:
                if task is None:
                    return
                task()
            except Exception:
                # A task that leaks is a bug in the session layer (a
                # session drain fails its ticket on any exception raised
                # after dequeue).  Count it so ``/health`` shows it, and
                # keep the worker: one poisoned batch must not halve
                # the pool.
                with self._leaked_lock:
                    self._leaked += 1
            finally:
                # After the task, so the work it dispatched is already
                # queued when ``shutdown``'s join sees this one done.
                self._tasks.task_done()

    @property
    def leaked_task_errors(self) -> int:
        """Exceptions that escaped a task since the pool started."""
        with self._leaked_lock:
            return self._leaked

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop the workers after the queued work drains.

        Waits until every dispatched task has run, including the tasks
        those dispatch in turn (a session's drain re-dispatches itself
        while its queue holds batches); only then do the stop sentinels
        go in, and ``timeout`` bounds each worker's exit.
        """
        self._tasks.join()
        for _ in self._threads:
            self._tasks.put(None)
        for thread in self._threads:
            thread.join(timeout=timeout)

"""Persistent worker pool: a reusable process-pool entry point.

The sweep scheduler builds (and tears down) a pool per ``run_sweep``
call — right for batch grids, wrong for a long-running service that
must execute a stream of independent jobs for hours.  :class:`WorkerPool`
keeps one :class:`~concurrent.futures.ProcessPoolExecutor` alive across
jobs and supervises it:

* a worker that **crashes** (``os._exit``, OOM-kill, segfault) breaks
  the pool; the pool is rebuilt and the job retried under a
  :class:`~repro.resilience.retry.RetryPolicy` (bounded exponential
  backoff, deterministic jitter keyed by the job key);
* a worker that **hangs** past ``timeout`` seconds gets the pool
  killed and rebuilt, and the job is retried the same way;
* deterministic exceptions from the job function propagate to the
  caller unchanged — the same input would fail the same way, so a
  retry would only waste a worker.

Job functions must be picklable module-level callables; they receive
their arguments plus an ``attempt`` keyword (1-based), which is how
deterministic fault injection (a job that kills its worker on attempt
1 and succeeds on attempt 2) stays reproducible.

:meth:`WorkerPool.run` is blocking and thread-safe: the analysis
service calls it from many request threads at once.  At most
``workers`` jobs are in the executor at a time; the others wait for a
slot before they are submitted, so a job's ``timeout`` counts only the
time it runs, never the time it waited behind other jobs.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool

from ..errors import ExperimentError
from ..resilience.retry import RetryPolicy


def stop_pool(executor: ProcessPoolExecutor, kill: bool = False,
              wait: bool = False) -> None:
    """Shut an executor down, cancelling queued work.  ``kill=True``
    kills its worker processes first: a hung worker may never return."""
    if kill:
        for process in list(getattr(executor, "_processes", {}).values()):
            process.kill()
    executor.shutdown(wait=wait, cancel_futures=True)


class WorkerPool:
    """A supervised, persistent process pool for independent jobs."""

    def __init__(self, workers: int = 1,
                 retry: RetryPolicy | None = None,
                 name: str = "pool"):
        if workers < 1:
            raise ExperimentError(
                f"workers must be >= 1, got {workers}"
            )
        self.workers = workers
        self.name = name
        self.policy = retry if retry is not None else RetryPolicy()
        #: total jobs submitted to worker processes (includes retries)
        self.jobs_submitted = 0
        #: pool rebuilds after a crash or hang
        self.restarts = 0
        self._executor: ProcessPoolExecutor | None = None
        self._generation = 0
        self._lock = threading.Lock()
        #: one slot per worker process (see :meth:`run`)
        self._slots = threading.BoundedSemaphore(workers)
        self._closed = False

    # -- lifecycle -----------------------------------------------------

    def _ensure(self) -> tuple[ProcessPoolExecutor, int]:
        with self._lock:
            if self._closed:
                raise ExperimentError(
                    f"{self.name}: pool is shut down"
                )
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers
                )
            return self._executor, self._generation

    def _rebuild(self, generation: int, kill: bool = False) -> None:
        """Replace a broken/hung pool (idempotent across racing
        threads: only the first caller for a generation rebuilds)."""
        with self._lock:
            if self._closed or self._generation != generation:
                return  # someone else already rebuilt (or we're done)
            executor = self._executor
            self._executor = None
            self._generation += 1
            self.restarts += 1
        if executor is not None:
            stop_pool(executor, kill=kill)

    def shutdown(self, wait: bool = True, kill: bool = False) -> None:
        """Stop the pool; subsequent :meth:`run` calls raise.

        ``kill=True`` hard-kills worker processes first — for shutting
        down past a job that is still hung (waiting for it would block
        for its full runtime).
        """
        with self._lock:
            self._closed = True
            executor = self._executor
            self._executor = None
        if executor is not None:
            stop_pool(executor, kill=kill, wait=wait)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *_exc) -> None:
        self.shutdown()

    # -- job execution -------------------------------------------------

    def run(self, fn, *args, key: str = "",
            timeout: float | None = None):
        """Run ``fn(*args, attempt=n)`` in a worker; returns its result.

        Crashes and hangs are retried per the pool's
        :class:`RetryPolicy`; when the budget is exhausted an
        :class:`~repro.errors.ExperimentError` is raised.  Exceptions
        *raised by the job itself* propagate on the first occurrence.
        """
        attempt = 1
        while True:
            # A job holds a slot from submit to result, so it never
            # waits in the executor's queue: ``timeout`` times the job,
            # not the jobs ahead of it.
            with self._slots:
                executor, generation = self._ensure()
                with self._lock:
                    self.jobs_submitted += 1
                try:
                    future = executor.submit(fn, *args, attempt=attempt)
                    return future.result(timeout=timeout)
                except BrokenProcessPool:
                    self._rebuild(generation)
                    error = "worker process died"
                except FutureTimeoutError:
                    # The worker may never return; kill the whole pool.
                    self._rebuild(generation, kill=True)
                    error = f"worker timed out after {timeout:.1f}s"
            if not self.policy.allows(attempt):
                raise ExperimentError(
                    f"{self.name}: job {key or fn.__name__!r} failed "
                    f"after {attempt} attempt(s): {error}"
                )
            time.sleep(self.policy.backoff_s(attempt, key=key))
            attempt += 1

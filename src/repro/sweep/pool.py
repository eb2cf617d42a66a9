"""Supervised worker pool: the one supervisor of worker processes.

Both callers that compute in worker processes run their jobs on a
:class:`WorkerPool`: ``run_sweep(jobs>1)`` builds one per sweep and
shuts it down when the sweep ends, and the analysis service keeps one
alive for hours.  The pool keeps one
:class:`~concurrent.futures.ProcessPoolExecutor` across jobs and
supervises it:

* a worker that **crashes** (``os._exit``, OOM-kill, segfault) breaks
  the pool, which is rebuilt.  The executor cannot say whose worker
  died, so blame follows one rule.  If one job was in the pool, it
  is charged an attempt and retried under the
  :class:`~repro.resilience.retry.RetryPolicy` (bounded exponential
  backoff, deterministic jitter keyed by the job key).  If several
  were, none is charged: each re-runs **alone**, with no other job in
  the pool, where a crash implicates exactly that job.  One job that
  kills its worker on every attempt thus spends its own retries and
  never its neighbours';
* a worker that **hangs** past its job's ``timeout`` gets the pool
  killed and rebuilt.  The hung job is charged an attempt; the jobs
  killed with it re-run uncharged;
* an exception raised by the job function propagates to the caller
  on its first occurrence;
* a worker starts in one place, :func:`_start_worker`.  It drops
  what the fork handed it of the parent's sockets and signals: a
  signal sent to the worker never wakes the parent's event loop
  (where a SIGTERM would drain a ``serve`` replica), a SIGTERM ends
  the worker (the pool then restarts it), and no inherited socket
  stays open in it (a worker holding a copy of a connection hides the
  peer's hangup from the server).  The memo, telemetry and chaos-plan
  modules drop their own state in their at-fork hooks;
* a worker whose parent dies exits by itself within about a second.
  Nothing else ends it: it waits on a call queue whose write end it
  holds itself, so a replica or sweep that dies by SIGKILL would
  leave its workers running until they too were killed.

Job functions must be picklable module-level callables; they receive
their arguments plus an ``attempt`` keyword (1-based), which is how
deterministic fault injection (a job that kills its worker on attempt
1 and succeeds on attempt 2) stays reproducible.  Only a charged
retry moves the attempt number on; a re-run that costs nothing keeps
it.

:meth:`WorkerPool.run` is blocking and thread-safe: the analysis
service calls it from many request threads at once, and a parallel
sweep from one thread per job.  At most ``workers`` jobs are in the
executor at a time; the others wait for a slot before they are
submitted, so a job's ``timeout`` counts only the time it runs, never
the time it waited behind other jobs.  A job waiting to re-run alone
goes before every job that has not started.
"""

from __future__ import annotations

import os
import signal
import stat
import threading
import time
from concurrent.futures import CancelledError, Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool

from ..errors import ExperimentError
from ..resilience.retry import RetryPolicy


def _start_worker(parent: int) -> None:
    """Worker initializer: drop what the fork inherited from ``parent``,
    then ``os._exit`` once ``parent`` is gone (the worker is
    re-parented).

    A signal sent to the worker never wakes the parent's event loop, a
    SIGTERM ends it (one forked from ``serve`` would otherwise keep the
    server's no-op handler; SIGINT keeps it, so a Ctrl-C to the process
    group drains through the server), and every inherited socket above
    fd 2 is pointed at ``/dev/null``: a worker holding a copy of a
    connection keeps it half-open, so its peer's ``close()`` never
    reaches the server as EOF.  ``dup2`` rather
    than ``close`` keeps each number taken, so a stale socket object
    finalized later in the worker closes ``/dev/null``, never a file the
    job opened.  Fds 0-2 stay: under systemd they are journald sockets.
    """
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    devnull = os.open(os.devnull, os.O_RDWR)
    for name in os.listdir("/dev/fd"):
        fd = int(name)
        try:
            if fd > 2 and stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.dup2(devnull, fd)
        except OSError:
            pass  # the listing's own descriptor, closed by now
    os.close(devnull)

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(1.0)
        os._exit(1)

    threading.Thread(target=watch, name="parent-watch",
                     daemon=True).start()


def stop_pool(executor: ProcessPoolExecutor, kill: bool = False,
              wait: bool = False) -> None:
    """Shut an executor down, cancelling queued work.  ``kill=True``
    kills its worker processes first: a hung worker may never return."""
    if kill:
        for process in list(getattr(executor, "_processes", {}).values()):
            process.kill()
    executor.shutdown(wait=wait, cancel_futures=True)


class _Job:
    """One submission of a job to the executor."""

    def __init__(self, key: str, generation: int, alone: bool):
        self.key = key
        self.generation = generation
        self.alone = alone
        self.future: Future | None = None
        #: set when the pool breaks under the job: "died" or "timed
        #: out" (charged), "alone" or "requeue" (re-run uncharged)
        self.verdict: str | None = None

    def lost(self) -> bool:
        """True unless the job ended with its result or exception."""
        future = self.future
        if not future.done() or future.cancelled():
            return True
        return isinstance(future.exception(), BrokenProcessPool)


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
        #: the jobs in the current executor
        self._jobs: set[_Job] = set()
        self._running = 0
        self._running_alone = False
        self._waiting_alone = 0
        self._cond = threading.Condition()
        self._closed = False

    # -- lifecycle -----------------------------------------------------

    def shutdown(self, wait: bool = True, kill: bool = False) -> None:
        """Stop the pool; subsequent :meth:`run` calls raise.

        ``kill=True`` hard-kills worker processes first — for shutting
        down past a job that is still hung (waiting for it would block
        for its full runtime).  Jobs waiting for a slot or a backoff
        raise at once.
        """
        with self._cond:
            self._closed = True
            executor = self._executor
            self._executor = None
            self._cond.notify_all()
        if executor is not None:
            stop_pool(executor, kill=kill, wait=wait)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *_exc) -> None:
        self.shutdown()

    def _shut_down(self) -> ExperimentError:
        return ExperimentError(f"{self.name}: pool is shut down")

    def _start(self, fn, args, key: str, attempt: int,
               alone: bool) -> _Job:
        """Wait for a slot (for an empty pool when ``alone``), then
        submit one attempt of a job."""
        with self._cond:
            if alone:
                self._waiting_alone += 1
                try:
                    self._cond.wait_for(
                        lambda: self._closed or not self._running
                    )
                finally:
                    self._waiting_alone -= 1
            else:
                self._cond.wait_for(lambda: self._closed or (
                    self._running < self.workers
                    and not self._running_alone
                    and not self._waiting_alone
                ))
            if self._closed:
                raise self._shut_down()
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers,
                    initializer=_start_worker,
                    initargs=(os.getpid(),),
                )
            job = _Job(key, self._generation, alone)
            self._running += 1
            self._running_alone = alone
            self.jobs_submitted += 1
            try:
                job.future = self._executor.submit(
                    fn, *args, attempt=attempt
                )
            except BrokenProcessPool as exc:
                # A worker died since the last job ended.  This job
                # never ran; it fails like the jobs that did, and the
                # rebuild finds it blameless.
                job.future = Future()
                job.future.set_exception(exc)
            else:
                self._jobs.add(job)
            return job

    def _finish(self, job: _Job) -> None:
        with self._cond:
            self._jobs.discard(job)
            self._running -= 1
            if job.alone:
                self._running_alone = False
            self._cond.notify_all()

    def _rebuild(self, job: _Job, hung: bool = False) -> list[_Job] | None:
        """Replace the executor ``job`` ran in and judge the jobs lost
        with it; returns them, or None when another thread already
        rebuilt that executor (or the pool is shut down)."""
        with self._cond:
            if self._closed or job.generation != self._generation:
                return None
            lost = [other for other in self._jobs if other.lost()]
            if hung:
                for other in lost:
                    other.verdict = "requeue"
                job.verdict = "timed out"
            else:
                verdict = "died" if len(lost) == 1 else "alone"
                for other in lost:
                    other.verdict = verdict
            executor = self._executor
            self._executor = None
            self._jobs = set()
            self._generation += 1
            self.restarts += 1
        # Kill what is left of it, so every job judged lost fails now.
        stop_pool(executor, kill=True)
        return lost

    # -- job execution -------------------------------------------------

    def run(self, fn, *args, key: str = "",
            timeout: float | None = None, attempt: int = 1,
            on_event=None):
        """Run ``fn(*args, attempt=n)`` in a worker; returns its result.

        Crashes and hangs are retried per the module's blame rule and
        the pool's :class:`RetryPolicy`, starting at ``attempt``; when
        the budget is exhausted an
        :class:`~repro.errors.ExperimentError` is raised.  Exceptions
        *raised by the job itself* propagate on the first occurrence.

        ``on_event(event, **fields)`` hears each supervision decision:
        ``worker_crash`` (``keys`` of the jobs the break took down,
        ``error``), ``task_timeout`` (``key``, ``attempt``,
        ``error``), ``task_requeued`` (``key``, ``attempt``) and
        ``task_retry`` (``key``, ``next_attempt``, ``backoff_s``).
        """
        report = on_event or (lambda event, **fields: None)
        alone = False
        while True:
            job = self._start(fn, args, key, attempt, alone)
            try:
                return job.future.result(timeout=timeout)
            except (BrokenProcessPool, CancelledError):
                lost = self._rebuild(job)
                if lost is not None:
                    report("worker_crash",
                           keys=[other.key for other in lost],
                           error="worker process died")
            except FutureTimeoutError:
                self._rebuild(job, hung=True)
            finally:
                self._finish(job)
            if self._closed:
                raise self._shut_down()
            alone = job.verdict == "alone"
            if job.verdict == "died":
                error = "worker process died"
            elif job.verdict == "timed out":
                error = f"worker timed out after {timeout:.1f}s"
                report("task_timeout", key=key, attempt=attempt,
                       error=error)
            else:
                if job.verdict == "requeue":
                    report("task_requeued", key=key, attempt=attempt)
                continue
            if not self.policy.allows(attempt):
                raise ExperimentError(
                    f"{self.name}: job {key or fn.__name__!r} failed "
                    f"after {attempt} attempt(s): {error}"
                )
            backoff = self.policy.backoff_s(attempt, key=key)
            report("task_retry", key=key, next_attempt=attempt + 1,
                   backoff_s=round(backoff, 4))
            with self._cond:
                if self._cond.wait_for(lambda: self._closed, backoff):
                    raise self._shut_down()
            attempt += 1

"""WorkerPool tests: persistence, crash/hang supervision, retries."""

import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.errors import ExperimentError
from repro.resilience.retry import RetryPolicy
from repro.sweep.pool import WorkerPool

FAST_RETRY = RetryPolicy(retries=2, base_delay_s=0.01,
                         max_delay_s=0.05)


def double(x, attempt=1):
    return x * 2


def report_attempt(attempt=1):
    return attempt


def die_until(threshold, attempt=1):
    """Kill the worker process on attempts <= threshold."""
    if attempt <= threshold:
        os._exit(13)
    return attempt


def hang_once(attempt=1):
    if attempt == 1:
        time.sleep(60.0)
    return attempt


def deterministic_failure(attempt=1):
    raise ValueError(f"always fails (attempt {attempt})")


def nap(seconds, attempt=1):
    time.sleep(seconds)
    return attempt


def double_or_die(x, attempt=1):
    """Every eighth job kills its worker on its first attempt; the
    others take 20 ms, so some are running when it does."""
    if x % 8 == 0 and attempt == 1:
        os._exit(13)
    time.sleep(0.02)
    return 2 * x, attempt


class TestHappyPath:
    def test_runs_jobs_and_reuses_the_pool(self):
        with WorkerPool(workers=1, retry=FAST_RETRY) as pool:
            assert pool.run(double, 21) == 42
            assert pool.run(double, 4) == 8
            assert pool.jobs_submitted == 2
            assert pool.restarts == 0

    def test_jobs_receive_the_attempt_number(self):
        with WorkerPool(workers=1, retry=FAST_RETRY) as pool:
            assert pool.run(report_attempt) == 1

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ExperimentError):
            WorkerPool(workers=0)


class TestSupervision:
    def test_crashed_worker_is_rebuilt_and_job_retried(self):
        with WorkerPool(workers=1, retry=FAST_RETRY) as pool:
            assert pool.run(die_until, 1, key="crash") == 2
            assert pool.restarts == 1
            assert pool.jobs_submitted == 2
            # The rebuilt pool keeps serving.
            assert pool.run(double, 3) == 6

    def test_retry_budget_exhaustion_raises(self):
        with WorkerPool(workers=1, retry=FAST_RETRY) as pool:
            with pytest.raises(ExperimentError, match="died"):
                pool.run(die_until, 99, key="doomed")
            assert pool.restarts == FAST_RETRY.max_attempts

    def test_hung_worker_is_killed_and_job_retried(self):
        with WorkerPool(workers=1, retry=FAST_RETRY) as pool:
            assert pool.run(hang_once, key="hang",
                            timeout=1.0) == 2
            assert pool.restarts == 1

    def test_time_queued_behind_other_jobs_is_not_timed(self):
        # Four concurrent 0.4 s jobs on one worker take 1.6 s in all;
        # each must be timed from when it reaches the worker, so none
        # of them hits the 1 s ceiling and the pool is never killed.
        with WorkerPool(workers=1, retry=RetryPolicy(retries=0)) as pool:
            with ThreadPoolExecutor(max_workers=4) as threads:
                futures = [
                    threads.submit(pool.run, nap, 0.4, key=f"nap{i}",
                                   timeout=1.0)
                    for i in range(4)
                ]
                assert [future.result(timeout=30) for future in futures] \
                    == [1] * 4
            assert pool.restarts == 0
            assert pool.jobs_submitted == 4

    def test_bystander_of_a_crash_is_not_charged(self):
        # The executor cannot say whose worker died, so the 1 s job
        # re-runs alone, uncharged, while every death of the poisoned
        # job alone costs it an attempt.
        with WorkerPool(workers=2) as pool:
            with ThreadPoolExecutor(max_workers=2) as threads:
                bystander = threads.submit(pool.run, nap, 1.0, key="nap")
                poisoned = threads.submit(pool.run, die_until, 99,
                                          key="poisoned")
                assert bystander.result(timeout=60) == 1
                with pytest.raises(ExperimentError,
                                   match="after 3 attempt"):
                    poisoned.result(timeout=60)

    def test_job_killed_for_another_jobs_hang_is_not_charged(self):
        # Killing the hung job's worker kills the pool; the job that
        # shared it re-runs without spending its only attempt.
        with WorkerPool(workers=2, retry=RetryPolicy(retries=0)) as pool:
            with ThreadPoolExecutor(max_workers=2) as threads:
                bystander = threads.submit(pool.run, nap, 2.0, key="nap",
                                           timeout=5.0)
                hung = threads.submit(pool.run, hang_once, key="hang",
                                      timeout=1.0)
                assert bystander.result(timeout=60) == 1
                with pytest.raises(ExperimentError, match="timed out"):
                    hung.result(timeout=60)

    def test_crashes_among_many_threads_charge_only_their_jobs(self):
        # More threads and workers than cores, switching often: each
        # job returns its own result, every job beside a crash comes
        # back on attempt 1, and each crashing job on attempt 2.
        results, errors = {}, []
        pool = WorkerPool(workers=3, retry=FAST_RETRY)

        def client(first):
            try:
                for x in range(first, 32, 8):
                    results[x] = pool.run(double_or_die, x, key=f"j{x}")
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(first,),
                                    daemon=True) for first in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
            pool.shutdown(kill=True)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert results == {
            x: (2 * x, 2 if x % 8 == 0 else 1) for x in range(32)
        }

    def test_deterministic_exceptions_propagate_without_retry(self):
        with WorkerPool(workers=1, retry=FAST_RETRY) as pool:
            with pytest.raises(ValueError, match="always fails"):
                pool.run(deterministic_failure)
            assert pool.jobs_submitted == 1
            assert pool.restarts == 0


class TestLifecycle:
    def test_shutdown_rejects_new_jobs(self):
        pool = WorkerPool(workers=1, retry=FAST_RETRY)
        assert pool.run(double, 1) == 2
        pool.shutdown()
        with pytest.raises(ExperimentError, match="shut down"):
            pool.run(double, 1)

    def test_shutdown_is_idempotent(self):
        pool = WorkerPool(workers=1, retry=FAST_RETRY)
        pool.shutdown()
        pool.shutdown()

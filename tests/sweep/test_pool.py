"""WorkerPool tests: persistence, crash/hang supervision, retries."""

import os
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

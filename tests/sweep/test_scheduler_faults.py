"""Fault injection: the scheduler must survive workers that raise,
exit, or hang, retry up to the bound, and record everything in the
trace."""

from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.sweep import SweepTask, pool, run_sweep
from repro.sweep.telemetry import read_trace

TASKS = [SweepTask("lfk12"), SweepTask("lfk1")]


def events_of(trace_path, kind):
    return [e for e in read_trace(str(trace_path)) if e["event"] == kind]


class TestSequentialFaults:
    def test_raise_retried_then_succeeds(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        result = run_sweep(
            TASKS, jobs=1, retries=2, trace=str(trace),
            inject_faults={0: ("raise", 2)},
        )
        assert all(o.ok for o in result.outcomes)
        assert result.outcomes[0].attempts == 3
        assert len(events_of(trace, "task_retry")) == 2
        errors = events_of(trace, "task_error")
        assert all("injected fault" in e["error"] for e in errors)

    def test_retries_exhausted_records_failure(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        result = run_sweep(
            TASKS, jobs=1, retries=1, trace=str(trace),
            inject_faults={0: ("raise", 99)},
        )
        assert result.outcomes[0].status == "failed"
        assert result.outcomes[0].attempts == 2
        assert result.outcomes[1].ok  # the healthy task still ran
        failures = events_of(trace, "task_failed")
        assert len(failures) == 1
        assert failures[0]["key"] == TASKS[0].key
        assert "RuntimeError" in failures[0]["error"]

    def test_zero_retries_fails_immediately(self):
        result = run_sweep(
            TASKS, jobs=1, retries=0,
            inject_faults={0: ("raise", 1)},
        )
        assert result.outcomes[0].status == "failed"
        assert result.outcomes[0].attempts == 1


class TestParallelFaults:
    def test_worker_raise_is_retried(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        result = run_sweep(
            TASKS, jobs=2, retries=2, trace=str(trace),
            inject_faults={0: ("raise", 1)},
        )
        assert all(o.ok for o in result.outcomes)
        assert len(events_of(trace, "task_retry")) == 1

    def test_worker_exit_breaks_pool_and_recovers(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        result = run_sweep(
            TASKS, jobs=2, retries=2, trace=str(trace),
            inject_faults={0: ("exit", 1)},
        )
        assert all(o.ok for o in result.outcomes), [
            (o.label, o.status, o.error) for o in result.outcomes
        ]
        crashes = events_of(trace, "worker_crash")
        assert crashes, "pool break must be recorded in the trace"
        assert events_of(trace, "sweep_end")[0]["failed"] == 0

    @pytest.mark.parametrize("broken_submit", [1, 3])
    def test_submit_to_a_broken_pool_recovers(self, tmp_path, monkeypatch,
                                              broken_submit):
        """A worker that dies between two ``wait()`` calls breaks the
        pool before the next ``submit``; that submit raises
        ``BrokenProcessPool``, which must be attributed, not escape."""
        submits = []

        class BreaksOnce(ProcessPoolExecutor):
            def submit(self, *args, **kwargs):
                submits.append(args)
                if len(submits) == broken_submit:
                    raise BrokenProcessPool("a worker died")
                return super().submit(*args, **kwargs)

        monkeypatch.setattr(pool, "ProcessPoolExecutor", BreaksOnce)
        trace = tmp_path / "trace.jsonl"
        tasks = TASKS + [SweepTask("lfk3")]
        result = run_sweep(tasks, jobs=2, retries=2, trace=str(trace))
        assert all(o.ok for o in result.outcomes), [
            (o.label, o.status, o.error) for o in result.outcomes
        ]
        assert len(submits) > broken_submit
        assert events_of(trace, "worker_crash")
        assert events_of(trace, "sweep_end")[0]["failed"] == 0

    def test_worker_hang_times_out_and_recovers(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        result = run_sweep(
            TASKS, jobs=2, retries=1, timeout=1.5, trace=str(trace),
            inject_faults={0: ("hang", 1)},
        )
        assert all(o.ok for o in result.outcomes), [
            (o.label, o.status, o.error) for o in result.outcomes
        ]
        timeouts = events_of(trace, "task_timeout")
        assert len(timeouts) == 1
        assert timeouts[0]["key"] == TASKS[0].key

    def test_hang_retries_exhausted_marks_failed(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        result = run_sweep(
            [TASKS[0]], jobs=2, retries=0, timeout=1.0,
            trace=str(trace),
            inject_faults={0: ("hang", 99)},
        )
        assert result.outcomes[0].status == "failed"
        assert "timed out" in result.outcomes[0].error
        failures = events_of(trace, "task_failed")
        assert len(failures) == 1

    @pytest.mark.parametrize("fault", ["raise", "exit"])
    def test_failures_beyond_budget_are_recorded(self, tmp_path, fault):
        trace = tmp_path / f"trace-{fault}.jsonl"
        result = run_sweep(
            TASKS, jobs=2, retries=1, trace=str(trace),
            inject_faults={0: (fault, 99)},
        )
        assert result.outcomes[0].status == "failed"
        assert result.outcomes[1].ok
        assert events_of(trace, "task_failed")

"""Chaos equivalence suite: sweeps survive injected faults and, after
resume, publish payloads byte-identical to a fault-free run."""

import pytest

from repro.resilience import faults
from repro.resilience.faults import FaultPlan, FaultSpec, chaos
from repro.resilience.store import verify_log
from repro.sweep import SweepSpec, read_trace, run_sweep, summarize_trace
from repro.sweep.spec import OPTION_VARIANTS


@pytest.fixture(autouse=True)
def _disarm():
    yield
    faults.deactivate()


GRID = SweepSpec.build(
    ("lfk1", "lfk12"),
    variants={
        "default": OPTION_VARIANTS["default"],
        "reuse": OPTION_VARIANTS["reuse"],
    },
)


@pytest.fixture(scope="module")
def baseline():
    """The fault-free ``--jobs 1`` payload every chaos run must match."""
    return run_sweep(GRID, jobs=1).results_jsonl()


class TestCheckpointFaults:
    def test_torn_checkpoint_write_then_resume(self, tmp_path,
                                               baseline):
        ckpt = tmp_path / "sweep.ckpt"
        plan = FaultPlan(faults=(
            FaultSpec(site="store.append", kind="torn-write",
                      path="sweep.ckpt", after=1, count=1),
        ))
        with chaos(plan):
            first = run_sweep(GRID, jobs=1, checkpoint=str(ckpt))
        # The sweep itself survived (checkpointing degraded, results
        # did not), and the torn record is on disk.
        assert first.results_jsonl() == baseline
        degraded = [e for e in first.telemetry.events
                    if e["event"] == "checkpoint_degraded"]
        assert len(degraded) == 1
        assert not verify_log(str(ckpt)).clean
        # Resume without chaos: recovery truncates the torn tail,
        # re-runs what was lost, and the payload is byte-identical.
        second = run_sweep(GRID, jobs=1, checkpoint=str(ckpt))
        assert second.results_jsonl() == baseline
        assert verify_log(str(ckpt)).clean

    def test_checkpoint_io_error_degrades_not_dies(self, tmp_path,
                                                   baseline):
        ckpt = tmp_path / "sweep.ckpt"
        plan = FaultPlan(faults=(
            FaultSpec(site="store.append", kind="io-error",
                      path="sweep.ckpt", count=None),
        ))
        with chaos(plan):
            result = run_sweep(GRID, jobs=1, checkpoint=str(ckpt))
        assert result.results_jsonl() == baseline
        assert any(e["event"] == "checkpoint_degraded"
                   for e in result.telemetry.events)
        # With every append failing, nothing was checkpointed; a
        # clean resume simply runs the whole grid again, identically.
        second = run_sweep(GRID, jobs=1, checkpoint=str(ckpt))
        assert second.results_jsonl() == baseline


class TestTraceFaults:
    def test_trace_io_error_degrades_not_dies(self, tmp_path,
                                              baseline):
        trace = tmp_path / "trace.jsonl"
        plan = FaultPlan(faults=(
            FaultSpec(site="trace.write", kind="io-error",
                      count=None, after=2),
        ))
        with chaos(plan):
            result = run_sweep(GRID, jobs=1, trace=str(trace))
        assert result.results_jsonl() == baseline
        assert result.telemetry.degraded is not None
        events = [e["event"] for e in result.telemetry.events]
        assert events.count("trace_degraded") == 1
        # The fault fires on every write, yet its own event is not a
        # write that fires it again.
        assert events.count("fault_injected") == 1

    def test_fired_fault_reaches_the_sweep_trace(self, tmp_path,
                                                 baseline):
        ckpt = tmp_path / "sweep.ckpt"
        trace = tmp_path / "trace.jsonl"
        plan = FaultPlan(faults=(
            FaultSpec(site="store.append", kind="io-error",
                      path="sweep.ckpt", after=1, count=1),
        ))
        with chaos(plan):
            result = run_sweep(GRID, jobs=1, checkpoint=str(ckpt),
                               trace=str(trace))
        assert result.results_jsonl() == baseline
        events = read_trace(str(trace))
        fired = [(e["site"], e["kind"], e["path"]) for e in events
                 if e["event"] == "fault_injected"]
        assert fired == [("store.append", "io-error", str(ckpt))]
        names = [e["event"] for e in events]
        assert names.index("fault_injected") < \
            names.index("checkpoint_degraded")
        assert "faults injected" in summarize_trace(str(trace))


class TestWorkerFaults:
    def test_worker_kill_from_plan_then_identical_results(
        self, baseline
    ):
        plan = FaultPlan(faults=(
            FaultSpec(site="worker", kind="exit", task=0, count=1),
        ))
        result = run_sweep(GRID, jobs=2, fault_plan=plan)
        assert all(o.ok for o in result.outcomes)
        assert result.results_jsonl() == baseline
        assert any(e["event"] == "worker_crash"
                   for e in result.telemetry.events)

    def test_worker_kill_with_checkpoint_resume(self, tmp_path,
                                                baseline):
        ckpt = tmp_path / "sweep.ckpt"
        plan = FaultPlan(faults=(
            FaultSpec(site="worker", kind="raise", task=1,
                      count=99),  # exhausts every retry
        ))
        first = run_sweep(GRID, jobs=2, fault_plan=plan,
                          checkpoint=str(ckpt),
                          retry=None, retries=1)
        failed = [o for o in first.outcomes if o.status == "failed"]
        assert len(failed) == 1
        # Resume fault-free: the failed cell is retried (failed
        # entries are not resumable) and the payload converges.
        second = run_sweep(GRID, jobs=1, checkpoint=str(ckpt))
        assert second.results_jsonl() == baseline
        assert verify_log(str(ckpt)).clean


class TestDeadline:
    def test_expired_deadline_fails_typed_not_hangs(self):
        # after=1: the deadline's own start-time read stays real,
        # the next clock read jumps an hour into the future
        skew = FaultPlan(faults=(
            FaultSpec(site="clock", kind="skew", value=3600.0,
                      after=1),
        ))
        with chaos(skew):
            result = run_sweep(GRID, jobs=1, deadline_s=60.0)
        assert all(o.status == "failed" for o in result.outcomes)
        assert all("BudgetExceededError" in o.error
                   for o in result.outcomes)
        budget_events = [e for e in result.telemetry.events
                         if e["event"] == "budget_exceeded"]
        assert len(budget_events) == len(result.outcomes)

    def test_expired_deadline_parallel_drains_pool(self):
        # after=1: the deadline's own start-time read stays real,
        # the next clock read jumps an hour into the future
        skew = FaultPlan(faults=(
            FaultSpec(site="clock", kind="skew", value=3600.0,
                      after=1),
        ))
        with chaos(skew):
            result = run_sweep(GRID, jobs=2, deadline_s=60.0)
        assert all(o.status == "failed" for o in result.outcomes)

    def test_generous_deadline_changes_nothing(self, baseline):
        result = run_sweep(GRID, jobs=1, deadline_s=3600.0)
        assert result.results_jsonl() == baseline

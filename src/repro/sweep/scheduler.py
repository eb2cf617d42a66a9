"""Parallel sweep execution.

:func:`run_sweep` takes a :class:`~repro.sweep.spec.SweepSpec` (or an
already-expanded task list) and executes every cell, either inline
(``jobs=1`` — shares the process-wide compile/run caches, which is the
fastest way to run overlapping grids) or across a
:class:`~concurrent.futures.ProcessPoolExecutor` (``jobs>1``).

Fault tolerance:

* a worker that **raises** an unexpected exception is retried, up to
  ``retries`` extra attempts;
* a worker that **exits** (killing its process) breaks the pool; the
  pool is rebuilt and every in-flight task is retried;
* a worker that **hangs** past ``timeout`` seconds gets its pool
  killed and is retried; innocent in-flight tasks are re-queued
  without consuming one of their attempts;
* deterministic failures (:class:`~repro.errors.ReproError` —
  compile/verify/simulation errors) are *not* retried: the same input
  would fail the same way, so they are recorded as ``error`` outcomes.

Every decision is emitted to the telemetry trace (JSONL); results are
returned in grid order regardless of completion order, and the
deterministic result payload is byte-identical for any ``jobs`` value.

Fault injection (``inject_faults``) is built into the worker so the
scheduler's recovery paths can be tested deterministically: a mapping
``{task_index: (kind, fail_attempts)}`` makes attempts 1..fail_attempts
of that task ``"raise"``, ``"exit"`` (``os._exit``), or ``"hang"``.
A :class:`~repro.resilience.faults.FaultPlan` (``fault_plan=`` or the
plan armed via ``macs-repro --chaos``) feeds the same mechanism from
its ``site="worker"`` entries.

Resilience semantics layered on top (see ``docs/robustness.md``):

* retries follow a unified
  :class:`~repro.resilience.retry.RetryPolicy` — bounded exponential
  backoff with deterministic jitter — instead of bare counters;
* ``deadline_s`` bounds the whole sweep's wall clock; work remaining
  at expiry becomes typed ``BudgetExceededError`` results, never a
  hang;
* checkpoint writes are durable (CRC-framed, fsync'd) and checkpoint
  *reads* self-recover; a checkpoint that stops accepting writes
  degrades the sweep to checkpoint-less operation instead of killing
  it.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from ..errors import ExperimentError, ReproError
from ..resilience import faults as _faults
from ..resilience.retry import RetryPolicy
from ..resilience.watchdog import Deadline
from . import telemetry as tele
from .checkpoint import Checkpoint
from .pool import stop_pool
from .spec import SweepSpec, SweepTask

#: statuses whose checkpoint entries are reused on resume ("failed"
#: runs — crashes/timeouts — are retried instead).
_RESUMABLE = ("ok", "error")


@dataclass
class TaskOutcome:
    """The result of one sweep cell.

    ``metrics`` and ``error`` are deterministic (identical for any
    ``jobs`` value); ``stages``/``counters``/``wall_s``/``pid``/
    ``attempts`` describe *how* this particular execution went and only
    appear in the telemetry trace.
    """

    index: int
    key: str
    workload: str
    label: str
    tags: dict = field(default_factory=dict)
    n: int | None = None
    status: str = "ok"  # ok | cached | error | failed
    attempts: int = 0
    error: str | None = None
    metrics: dict = field(default_factory=dict)
    stages: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    wall_s: float = 0.0
    pid: int = 0

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "cached")

    def result_dict(self) -> dict:
        """The deterministic result payload (checkpoint/output form)."""
        return {
            "key": self.key,
            "workload": self.workload,
            "label": self.label,
            "tags": dict(self.tags),
            "n": self.n,
            "status": "ok" if self.status == "cached" else self.status,
            "error": self.error,
            "metrics": self.metrics,
        }

    @classmethod
    def from_result_dict(cls, index: int, data: dict) -> "TaskOutcome":
        return cls(
            index=index,
            key=data["key"],
            workload=data["workload"],
            label=data.get("label", data["workload"]),
            tags=dict(data.get("tags") or {}),
            n=data.get("n"),
            status=data.get("status", "ok"),
            error=data.get("error"),
            metrics=dict(data.get("metrics") or {}),
        )


@dataclass
class SweepResult:
    """All outcomes of one sweep, in grid order, plus its telemetry."""

    outcomes: list[TaskOutcome]
    telemetry: tele.Telemetry
    jobs: int = 1
    wall_s: float = 0.0

    @property
    def failed(self) -> list[TaskOutcome]:
        return [o for o in self.outcomes if not o.ok]

    def results_jsonl(self) -> str:
        """Deterministic JSONL payload (one line per grid cell)."""
        return "\n".join(
            json.dumps(o.result_dict(), sort_keys=True)
            for o in self.outcomes
        ) + "\n"

    def table(self) -> str:
        """Per-cell metrics table (deterministic)."""
        from ..experiments.formatting import TextTable

        table = TextTable(
            ["task", "status", "cycles", "CPL", "CPF", "MFLOPS"]
        )
        def cell(m: dict, key: str, spec: str) -> str:
            return format(m[key], spec) if key in m else "-"

        for o in self.outcomes:
            m = o.metrics
            if o.ok and m:
                table.add_row(
                    o.label, "ok",
                    cell(m, "cycles", ".0f"),
                    cell(m, "cpl", ".3f"),
                    cell(m, "cpf", ".3f"),
                    cell(m, "mflops", ".2f"),
                )
            else:
                table.add_row(o.label, o.status, "-", "-", "-", "-")
        return table.render()

    def summary(self) -> str:
        """Operator summary, computed from the telemetry trace."""
        return tele.summarize_trace(self.telemetry.events)


# ----------------------------------------------------------------------
# Task execution (runs inline or inside a worker process)
# ----------------------------------------------------------------------

def _task_spec(task: SweepTask):
    from ..workloads import workload
    from ..workloads.runner import sized_spec

    spec = workload(task.workload)
    if task.n is not None:
        spec = sized_spec(spec, task.n)
    return spec


def execute_task(
    task: SweepTask,
    attempt: int = 1,
    fault: tuple[str, int] | None = None,
) -> dict:
    """Run one sweep cell; returns a picklable payload dict.

    Deterministic domain errors come back as ``status="error"``
    payloads (they would fail identically on retry); unexpected
    exceptions propagate so the scheduler's retry machinery engages.
    """
    if fault is not None:
        _faults.inject_worker_fault(*fault, attempt)
    wall0 = time.perf_counter()
    payload = {
        "key": task.key,
        "attempt": attempt,
        "pid": os.getpid(),
        "status": "ok",
        "error": None,
        "metrics": {},
        "stages": {},
        "counters": {},
    }
    with tele.collecting() as task_tele:
        try:
            payload["metrics"] = _compute_metrics(task, _task_spec(task))
        except ReproError as exc:
            payload["status"] = "error"
            payload["error"] = f"{type(exc).__name__}: {exc}"
    payload["stages"] = task_tele.stage_snapshot()
    payload["counters"] = dict(task_tele.counters)
    payload["wall_s"] = round(time.perf_counter() - wall0, 6)
    return payload


def _compute_metrics(task: SweepTask, spec) -> dict:
    """The deterministic metrics for one cell (``spec`` is its kernel
    at its problem size), per its mode."""
    if task.mode == "run":
        from ..workloads import run_kernel

        return run_kernel(spec, task.options, task.config).metrics()
    if task.mode == "bound":
        from ..model import macs_bound
        from ..schedule.chimes import ChimeRules, refresh_factor_for
        from ..workloads import compile_spec

        with tele.stage("bound"):
            compiled = compile_spec(spec, task.options)
            bound = macs_bound(
                compiled.program,
                vl=task.config.max_vl,
                timings=task.config.timings,
                rules=(
                    ChimeRules.for_machine(task.config)
                    if task.rules is None else task.rules
                ),
                refresh=task.config.refresh_enabled,
                refresh_factor=refresh_factor_for(task.config),
            )
        return {"cpl": bound.cpl}
    # mode == "mac": the model hierarchy's compiler-level bound
    from ..model import analyze_kernel

    with tele.stage("bound"):
        analysis = analyze_kernel(spec, options=task.options,
                                  config=task.config, measure=False)
    return {"cpl": analysis.mac.cpl}


def _probe_run_cache(task: SweepTask) -> bool:
    """True when the process-wide run cache already holds this cell."""
    if task.mode != "run":
        return False
    try:
        from ..workloads import runner

        spec = _task_spec(task)
        key = (runner._spec_key(spec), task.options, task.config)
        return key in runner._RUN_MEMO
    except ReproError:
        return False


# ----------------------------------------------------------------------
# The scheduler
# ----------------------------------------------------------------------

@dataclass
class _Pending:
    index: int
    task: SweepTask
    attempt: int  # next attempt number (1-based)
    ready_at: float = 0.0  # backoff: not before this monotonic time


def run_sweep(
    spec_or_tasks: SweepSpec | list[SweepTask],
    *,
    jobs: int = 1,
    timeout: float | None = None,
    retries: int = 2,
    retry: RetryPolicy | None = None,
    deadline_s: float | None = None,
    checkpoint: str | None = None,
    trace: str | None = None,
    inject_faults: dict[int, tuple[str, int]] | None = None,
    fault_plan=None,
) -> SweepResult:
    """Execute a sweep grid; see the module docstring for semantics."""
    if jobs < 1:
        raise ExperimentError(f"jobs must be >= 1, got {jobs}")
    if retries < 0:
        raise ExperimentError(f"retries must be >= 0, got {retries}")
    policy = retry if retry is not None else RetryPolicy.from_retries(
        retries
    )
    if isinstance(spec_or_tasks, SweepSpec):
        grid_size = spec_or_tasks.grid_size
        tasks = spec_or_tasks.expand()
    else:
        tasks = list(spec_or_tasks)
        grid_size = len(tasks)
    plan = fault_plan if fault_plan is not None else _faults.active_plan()
    faults = dict(plan.worker_faults()) if plan is not None else {}
    faults.update(inject_faults or {})

    telemetry = tele.Telemetry(trace)
    deadline = Deadline(deadline_s)
    wall0 = time.perf_counter()
    telemetry.emit(
        "sweep_start",
        tasks=len(tasks),
        grid_size=grid_size,
        deduplicated=grid_size - len(tasks),
        jobs=jobs,
        timeout=timeout,
        retries=policy.retries,
        deadline_s=deadline_s,
        chaos=plan.name if plan is not None else None,
    )

    outcomes: dict[int, TaskOutcome] = {}
    pending: deque[_Pending] = deque()

    ckpt = Checkpoint(checkpoint) if checkpoint else None
    done_before = ckpt.load() if ckpt else {}
    if ckpt is not None and ckpt.last_report is not None \
            and not ckpt.last_report.clean:
        telemetry.emit(
            "checkpoint_recovered", **ckpt.last_report.to_dict()
        )
    for index, task in enumerate(tasks):
        prior = done_before.get(task.key)
        if prior is not None and prior.get("status") in _RESUMABLE:
            outcomes[index] = TaskOutcome.from_result_dict(index, prior)
            telemetry.emit("checkpoint_skip", key=task.key,
                           task=task.label)
        else:
            pending.append(_Pending(index, task, attempt=1))

    ckpt_ok = True

    def checkpoint_append(payload: dict) -> None:
        """Durable append, degrading to checkpoint-less on I/O death."""
        nonlocal ckpt_ok
        if ckpt is None or not ckpt_ok:
            return
        try:
            ckpt.append(payload)
        except OSError as exc:
            ckpt_ok = False
            telemetry.emit(
                "checkpoint_degraded",
                path=ckpt.path,
                error=f"{type(exc).__name__}: {exc}",
                note="checkpoint writes disabled; sweep continues "
                "without resume protection",
            )

    def finish(item: _Pending, payload: dict) -> None:
        task = item.task
        outcome = TaskOutcome(
            index=item.index,
            key=task.key,
            workload=task.workload,
            label=task.label,
            tags=dict(task.tags),
            n=task.n,
            status=payload["status"],
            attempts=item.attempt,
            error=payload["error"],
            metrics=payload["metrics"],
            stages=payload["stages"],
            counters=payload["counters"],
            wall_s=payload.get("wall_s", 0.0),
            pid=payload.get("pid", 0),
        )
        outcomes[item.index] = outcome
        for name, s in outcome.stages.items():
            telemetry.record_stage(name, s["wall_s"], s["cpu_s"])
        telemetry.record_counters(outcome.counters)
        telemetry.emit(
            "task_end",
            key=outcome.key,
            task=outcome.label,
            status=outcome.status,
            attempt=item.attempt,
            error=outcome.error,
            wall_s=outcome.wall_s,
            pid=outcome.pid,
            stages=outcome.stages,
            counters=outcome.counters,
        )
        checkpoint_append(outcome.result_dict())

    def give_up(item: _Pending, error: str) -> None:
        outcome = TaskOutcome(
            index=item.index,
            key=item.task.key,
            workload=item.task.workload,
            label=item.task.label,
            tags=dict(item.task.tags),
            n=item.task.n,
            status="failed",
            attempts=item.attempt,
            error=error,
        )
        outcomes[item.index] = outcome
        telemetry.emit(
            "task_failed",
            key=outcome.key,
            task=outcome.label,
            attempts=item.attempt,
            error=error,
        )
        checkpoint_append(outcome.result_dict())

    def retry_or_fail(item: _Pending, error: str, event: str) -> None:
        telemetry.emit(
            event, key=item.task.key, task=item.task.label,
            attempt=item.attempt, error=error,
        )
        if not policy.allows(item.attempt):
            give_up(item, error)
        else:
            backoff = policy.backoff_s(item.attempt, key=item.task.key)
            telemetry.emit(
                "task_retry", key=item.task.key, task=item.task.label,
                next_attempt=item.attempt + 1,
                backoff_s=round(backoff, 4),
            )
            pending.append(
                _Pending(
                    item.index, item.task, item.attempt + 1,
                    ready_at=time.monotonic() + backoff,
                )
            )

    def budget_fail(item: _Pending) -> None:
        """Convert work remaining at deadline expiry into a typed
        failure (the sweep-level BudgetExceededError result)."""
        err = deadline.error(f"sweep cell {item.task.label}")
        telemetry.emit(
            "budget_exceeded", key=item.task.key, task=item.task.label,
            budget="wall-clock", limit=deadline.seconds,
            elapsed=round(deadline.elapsed(), 3),
        )
        give_up(item, f"{type(err).__name__}: {err}")

    if jobs == 1:
        _run_sequential(pending, faults, finish, retry_or_fail,
                        deadline, budget_fail)
    else:
        _run_parallel(pending, faults, jobs, timeout, finish,
                      retry_or_fail, telemetry, deadline, budget_fail)

    wall = time.perf_counter() - wall0
    ok = sum(1 for o in outcomes.values() if o.ok)
    telemetry.emit(
        "sweep_end",
        wall_s=round(wall, 6),
        jobs=jobs,
        completed=ok,
        failed=len(outcomes) - ok,
    )
    telemetry.flush(fsync=True)
    telemetry.close()
    ordered = [outcomes[i] for i in sorted(outcomes)]
    return SweepResult(
        outcomes=ordered, telemetry=telemetry, jobs=jobs,
        wall_s=wall,
    )


def _run_sequential(pending, faults, finish, retry_or_fail,
                    deadline, budget_fail) -> None:
    """Inline execution: shares the process-wide memo caches."""
    while pending:
        item = pending.popleft()
        if deadline.expired():
            budget_fail(item)
            continue
        wait_s = item.ready_at - time.monotonic()
        if wait_s > 0:
            remaining = deadline.remaining()
            if remaining is not None and wait_s >= remaining:
                time.sleep(max(0.0, remaining))
                budget_fail(item)
                continue
            time.sleep(wait_s)
        cached = _probe_run_cache(item.task)
        try:
            payload = execute_task(
                item.task, item.attempt, faults.get(item.index)
            )
        except Exception as exc:  # injected/unexpected faults
            retry_or_fail(item, f"{type(exc).__name__}: {exc}",
                          "task_error")
            continue
        if cached and payload["status"] == "ok":
            payload["status"] = "cached"
        finish(item, payload)


def _run_parallel(pending, faults, jobs, timeout, finish, retry_or_fail,
                  telemetry, deadline, budget_fail) -> None:
    """Sliding-window execution over a ProcessPoolExecutor.

    At most ``jobs`` futures are in flight, so a submitted task starts
    (approximately) immediately and per-task timeouts can be measured
    from submission time.

    A broken pool (a worker called ``exit`` or was OOM-killed) cannot
    tell us *which* in-flight task killed it.  Rather than charging a
    retry to every bystander, the affected tasks are re-run in a
    **probation** window of width 1: a crash there implicates exactly
    the one running task, which is then the only one charged.  This
    keeps a single repeat-offender from burning its neighbours' retry
    budgets while still guaranteeing termination.
    """
    executor = ProcessPoolExecutor(max_workers=jobs)
    in_flight: dict = {}  # future -> (_Pending, submitted_at)
    probation: deque[_Pending] = deque()

    def rebuild_pool(kill: bool = False):
        nonlocal executor
        stop_pool(executor, kill=kill)
        executor = ProcessPoolExecutor(max_workers=jobs)

    def pool_died(crashed: list) -> None:
        """The pool broke: every in-flight task died with it, and none
        of them can be blamed yet."""
        crashed.extend(item for item, _submitted in in_flight.values())
        in_flight.clear()
        if len(crashed) == 1:
            # Only one suspect: it is the culprit.
            retry_or_fail(crashed[0], "worker process died", "worker_crash")
        else:
            telemetry.emit(
                "worker_crash",
                tasks=[item.task.label for item in crashed],
                error="worker process died; re-running "
                "affected tasks one at a time",
            )
            probation.extend(crashed)
        rebuild_pool()

    try:
        while pending or probation or in_flight:
            if deadline.expired():
                # Out of wall-clock budget: everything still queued or
                # in flight becomes a typed failure, never a hang.
                stop_pool(executor, kill=True)
                leftovers = list(probation) + list(pending) + [
                    item for item, _submitted in in_flight.values()
                ]
                probation.clear()
                pending.clear()
                in_flight.clear()
                for item in leftovers:
                    budget_fail(item)
                return
            window = 1 if probation else jobs
            queue = probation if probation else pending
            submitted = False
            broken = False
            while queue and len(in_flight) < window:
                if queue[0].ready_at > time.monotonic():
                    break  # head is backing off; let in-flight drain
                item = queue.popleft()
                try:
                    future = executor.submit(
                        execute_task, item.task, item.attempt,
                        faults.get(item.index)
                    )
                except BrokenProcessPool:
                    # A worker died since the last wait(); this item
                    # never ran, so it goes back uncharged.
                    queue.appendleft(item)
                    broken = True
                    break
                in_flight[future] = (item, time.monotonic())
                submitted = True
            if broken:
                pool_died([])
                continue
            if not in_flight:
                if not submitted:
                    time.sleep(0.01)  # everything is backing off
                continue  # probation drained; refill at full window
            done, _ = wait(
                in_flight, timeout=0.05, return_when=FIRST_COMPLETED
            )
            crashed = []
            for future in done:
                item, _submitted = in_flight.pop(future)
                error = future.exception()
                if error is None:
                    finish(item, future.result())
                elif isinstance(error, BrokenProcessPool):
                    crashed.append(item)
                else:
                    retry_or_fail(
                        item, f"{type(error).__name__}: {error}",
                        "task_error",
                    )
            if crashed:
                pool_died(crashed)
                continue
            if timeout is None:
                continue
            now = time.monotonic()
            expired = {
                future
                for future, (item, submitted) in in_flight.items()
                if now - submitted > timeout
            }
            if not expired:
                continue
            # Killing a hung worker takes the whole pool with it:
            # charge an attempt to the expired tasks, re-queue the
            # innocent in-flight ones for free.
            for future, (item, _submitted) in in_flight.items():
                if future in expired:
                    retry_or_fail(
                        item, f"timed out after {timeout:.1f}s",
                        "task_timeout",
                    )
                elif future.done() and future.exception() is None:
                    finish(item, future.result())
                else:
                    telemetry.emit(
                        "task_requeued", key=item.task.key,
                        task=item.task.label, attempt=item.attempt,
                    )
                    pending.appendleft(item)
            in_flight.clear()
            rebuild_pool(kill=True)
    finally:
        stop_pool(executor)

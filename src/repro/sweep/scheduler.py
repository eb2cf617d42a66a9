"""Sweep execution.

:func:`run_sweep` takes a :class:`~repro.sweep.spec.SweepSpec` (or an
already-expanded task list) and executes every cell, either inline on
the calling thread (``jobs=1`` — shares the process-wide compile/run
caches, which is the fastest way to run overlapping grids, and starts
no thread or process) or on one
:class:`~repro.sweep.pool.WorkerPool` of ``jobs`` worker processes,
fed by ``jobs`` threads and shut down when the sweep ends
(``jobs>1``).

Fault tolerance:

* a cell that **raises** an unexpected exception is retried, up to
  ``retries`` extra attempts;
* a worker that **exits** (killing its process) or **hangs** past
  ``timeout`` seconds is the pool's to handle: it rebuilds itself,
  charges an attempt only to the job it can blame, and re-runs the
  others uncharged (see :mod:`repro.sweep.pool`);
* deterministic failures (:class:`~repro.errors.ReproError` —
  compile/verify/simulation errors) are *not* retried: the same input
  would fail the same way, so they are recorded as ``error`` outcomes.

Attempt numbers count up across every kind of retry of one cell.
Every decision is emitted to the telemetry trace (JSONL); results are
returned in grid order regardless of completion order, and the
deterministic result payload is byte-identical for any ``jobs`` value.

Fault injection (``inject_faults``) is built into the worker so the
recovery paths can be tested deterministically: a mapping
``{task_index: (kind, fail_attempts)}`` makes attempts 1..fail_attempts
of that task ``"raise"``, ``"exit"`` (``os._exit``), or ``"hang"``.
A :class:`~repro.resilience.faults.FaultPlan` (``fault_plan=`` or the
plan armed via ``macs-repro --chaos``) feeds the same mechanism from
its ``site="worker"`` entries.  ``exit`` and ``hang`` need a worker
process, so a ``jobs=1`` sweep refuses them with
:class:`~repro.errors.ExperimentError` before any cell runs; ``raise``
runs inline.

Resilience semantics layered on top (see ``docs/robustness.md``):

* retries follow a unified
  :class:`~repro.resilience.retry.RetryPolicy` — bounded exponential
  backoff with deterministic jitter — instead of bare counters;
* ``deadline_s`` bounds the whole sweep's wall clock; at expiry the
  pool is killed and the work remaining becomes typed
  ``BudgetExceededError`` results, never a hang;
* checkpoint writes are durable (CRC-framed, fsync'd) and checkpoint
  *reads* self-recover; a checkpoint that stops accepting writes
  degrades the sweep to checkpoint-less operation instead of killing
  it.
"""

from __future__ import annotations

import json
import os
import threading
import time
from concurrent.futures import wait
from dataclasses import dataclass, field
from functools import partial

from ..errors import ExperimentError, ReproError
from ..resilience import faults as _faults
from ..resilience.retry import RetryPolicy
from ..resilience.watchdog import Deadline
from . import telemetry as tele
from .checkpoint import Checkpoint
from .pool import WorkerPool
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
    def of(cls, index: int, task: SweepTask, **fields) -> "TaskOutcome":
        """An outcome for grid cell ``index``, which runs ``task``."""
        return cls(index=index, key=task.key, workload=task.workload,
                   label=task.label, tags=dict(task.tags), n=task.n,
                   **fields)

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
    if jobs == 1:
        # Inline cells run in this process: an exit fault would kill
        # it and a hang would stall it, with no pool to recover.
        for index, (kind, _attempts) in sorted(faults.items()):
            if kind in ("exit", "hang"):
                raise ExperimentError(
                    f"worker fault {kind!r} on task {index} needs a "
                    "worker process, and a jobs=1 sweep runs its "
                    "cells inline; use --jobs 2"
                )
    # The sweep's collector is the active one while the grid runs, so a
    # chaos fault that fires outside a cell (a checkpoint append, a
    # trace write) reaches the sweep's trace as ``fault_injected``.
    with tele.collecting(trace) as telemetry:
        return _run_grid(
            tasks, grid_size, telemetry, plan, faults, jobs=jobs,
            timeout=timeout, policy=policy, deadline_s=deadline_s,
            checkpoint=checkpoint,
        )


def _run_grid(tasks: list[SweepTask], grid_size: int,
              telemetry: tele.Telemetry, plan, faults: dict, *,
              jobs: int, timeout: float | None, policy: RetryPolicy,
              deadline_s: float | None,
              checkpoint: str | None) -> SweepResult:
    """Run the expanded grid, tracing into ``telemetry``."""
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
    todo: list[tuple[int, SweepTask]] = []

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
            todo.append((index, task))

    labels = {task.key: task.label for task in tasks}
    # With jobs > 1 every cell thread records through these closures.
    lock = threading.RLock()
    ckpt_ok = True

    def emit(event: str, **fields) -> None:
        with lock:
            telemetry.emit(event, **fields)

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

    def finish(index: int, task: SweepTask, attempt: int,
               payload: dict) -> None:
        outcome = TaskOutcome.of(
            index, task, status=payload["status"], attempts=attempt,
            error=payload["error"], metrics=payload["metrics"],
            stages=payload["stages"], counters=payload["counters"],
            wall_s=payload.get("wall_s", 0.0), pid=payload.get("pid", 0),
        )
        with lock:
            outcomes[index] = outcome
            telemetry.emit(
                "task_end",
                key=outcome.key,
                task=outcome.label,
                status=outcome.status,
                attempt=attempt,
                error=outcome.error,
                wall_s=outcome.wall_s,
                pid=outcome.pid,
                stages=outcome.stages,
                counters=outcome.counters,
            )
            checkpoint_append(outcome.result_dict())

    def give_up(index: int, task: SweepTask, attempt: int,
                error: str) -> None:
        outcome = TaskOutcome.of(index, task, status="failed",
                                 attempts=attempt, error=error)
        with lock:
            outcomes[index] = outcome
            telemetry.emit(
                "task_failed",
                key=outcome.key,
                task=outcome.label,
                attempts=attempt,
                error=error,
            )
            checkpoint_append(outcome.result_dict())

    def budget_fail(index: int, task: SweepTask, attempt: int) -> None:
        """Record a cell the wall-clock deadline left unfinished as a
        typed failure (the sweep-level BudgetExceededError result)."""
        err = deadline.error(f"sweep cell {task.label}")
        emit(
            "budget_exceeded", key=task.key, task=task.label,
            budget="wall-clock", limit=deadline.seconds,
            elapsed=round(deadline.elapsed(), 3),
        )
        give_up(index, task, attempt, f"{type(err).__name__}: {err}")

    pool = WorkerPool(workers=jobs, retry=policy, name="sweep") \
        if jobs > 1 else None

    def run_cell(index: int, task: SweepTask) -> None:
        """Run one cell to its outcome, retrying its own exceptions."""
        attempt = 1
        fault = faults.get(index)

        def note(event: str, keys=None, **fields) -> None:
            """Trace a pool decision; a charged retry moves the cell's
            attempt number on."""
            nonlocal attempt
            if keys is not None:  # worker_crash
                emit(event, tasks=[labels[key] for key in keys],
                     **fields)
                return
            if event == "task_retry":
                attempt = fields["next_attempt"]
            emit(event, key=fields.pop("key"), task=task.label, **fields)

        while not deadline.expired():
            cached = pool is None and _probe_run_cache(task)
            try:
                if pool is None:
                    payload = execute_task(task, attempt, fault)
                else:
                    payload = pool.run(
                        partial(execute_task, fault=fault), task,
                        key=task.key, timeout=timeout, attempt=attempt,
                        on_event=note,
                    )
            except ExperimentError as exc:
                # The pool spent the cell's retries on crashes or
                # hangs, or was shut down when the deadline expired.
                if deadline.expired():
                    break
                give_up(index, task, attempt, str(exc))
                return
            except Exception as exc:  # injected/unexpected faults
                error = f"{type(exc).__name__}: {exc}"
                emit("task_error", key=task.key, task=task.label,
                     attempt=attempt, error=error)
                if not policy.allows(attempt):
                    give_up(index, task, attempt, error)
                    return
                backoff = policy.backoff_s(attempt, key=task.key)
                emit("task_retry", key=task.key, task=task.label,
                     next_attempt=attempt + 1,
                     backoff_s=round(backoff, 4))
                remaining = deadline.remaining()
                if remaining is not None:
                    backoff = max(0.0, min(backoff, remaining))
                time.sleep(backoff)
                attempt += 1
                continue
            if cached and payload["status"] == "ok":
                payload["status"] = "cached"
            finish(index, task, attempt, payload)
            return
        budget_fail(index, task, attempt)

    if pool is None:
        for index, task in todo:
            run_cell(index, task)
    else:
        # Imported here so that a jobs=1 sweep and ``import repro.cli``
        # load no thread-pool code.
        from concurrent.futures import ThreadPoolExecutor

        with pool, ThreadPoolExecutor(max_workers=jobs) as cells:
            futures = [cells.submit(run_cell, index, task)
                       for index, task in todo]
            running = set(futures)
            try:
                while running and not deadline.expired():
                    _done, running = wait(running,
                                          timeout=deadline.remaining())
            except BaseException:  # interrupted: drop the queued cells
                cells.shutdown(wait=False, cancel_futures=True)
                raise
            finally:
                if running:
                    # Out of wall-clock budget (or interrupted): kill
                    # the jobs in flight.  Each cell left unfinished
                    # records its failure, budget_exceeded at expiry.
                    pool.shutdown(wait=False, kill=True)
        for future in futures:
            future.result()  # re-raise a scheduler fault, if any

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
    ordered = [outcomes[i] for i in sorted(outcomes)]
    return SweepResult(
        outcomes=ordered, telemetry=telemetry, jobs=jobs,
        wall_s=wall,
    )

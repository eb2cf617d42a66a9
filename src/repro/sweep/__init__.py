"""Parallel batch-execution engine for (workload x options x config)
grids, with structured telemetry, fault tolerance, and
checkpoint/resume.

Public surface:

* :class:`SweepSpec` / :class:`SweepTask` / :data:`OPTION_VARIANTS` —
  declarative grids (:mod:`~repro.sweep.spec`);
* :func:`run_sweep` / :class:`SweepResult` / :class:`TaskOutcome` —
  the scheduler (:mod:`~repro.sweep.scheduler`);
* :mod:`~repro.sweep.telemetry` — stage timers, counter aggregation,
  JSONL traces, and :func:`summarize_trace`;
* :class:`Checkpoint` — resume support
  (:mod:`~repro.sweep.checkpoint`);
* :class:`WorkerPool` — the supervised process pool that parallel
  sweeps and the analysis service run their jobs on
  (:mod:`~repro.sweep.pool`);
* :func:`set_sweep_defaults` / :func:`grid_outcomes` — process-wide
  defaults the experiments honor (:mod:`~repro.sweep.api`).

Submodules are loaded lazily so the low-level layers
(:mod:`repro.workloads.runner`, :mod:`repro.machine.simulator`) can
import :mod:`repro.sweep.telemetry` without dragging the scheduler —
which imports them back — into their import cycle.
"""

from __future__ import annotations

_EXPORTS = {
    "OPTION_VARIANTS": "spec",
    "SweepSpec": "spec",
    "SweepTask": "spec",
    "digest": "spec",
    "run_sweep": "scheduler",
    "execute_task": "scheduler",
    "SweepResult": "scheduler",
    "TaskOutcome": "scheduler",
    "Checkpoint": "checkpoint",
    "WorkerPool": "pool",
    "Telemetry": "telemetry",
    "summarize_trace": "telemetry",
    "read_trace": "telemetry",
    "read_trace_report": "telemetry",
    "set_sweep_defaults": "api",
    "reset_sweep_defaults": "api",
    "sweep_defaults": "api",
    "grid_outcomes": "api",
}

__all__ = sorted(_EXPORTS) + ["telemetry"]


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value

"""Resilience subsystem: durable artifact stores, chaos/fault
injection, watchdog budgets, retry policy, and graceful degradation.

Public surface:

* :mod:`~repro.resilience.store` — :func:`atomic_write_text` /
  :func:`atomic_write_json`, :class:`DurableLog`,
  :class:`RecoveryReport`, :func:`verify_log`;
* :mod:`~repro.resilience.faults` — :class:`FaultPlan`,
  :class:`FaultSpec`, :func:`chaos` (context manager),
  :func:`activate` / :func:`deactivate`, :func:`check` (the fault
  point);
* :mod:`~repro.resilience.retry` — :class:`RetryPolicy`;
* :mod:`~repro.resilience.watchdog` — :class:`Deadline`,
  :func:`monotonic`, cycle/step ceiling checks.

Like :mod:`repro.sweep.telemetry`, these modules import nothing from
the rest of the package beyond :mod:`repro.errors`, so the machine,
workload, and sweep layers can all use them without import cycles.
"""

from __future__ import annotations

_EXPORTS = {
    "atomic_write_text": "store",
    "atomic_write_json": "store",
    "DurableLog": "store",
    "RecoveryReport": "store",
    "verify_log": "store",
    "FaultPlan": "faults",
    "FaultSpec": "faults",
    "chaos": "faults",
    "RetryPolicy": "retry",
    "Deadline": "watchdog",
}

__all__ = sorted(_EXPORTS) + [
    "faults", "retry", "store", "watchdog",
]


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

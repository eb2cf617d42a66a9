"""Structured telemetry for sweeps (and anything else that wants it).

A :class:`Telemetry` collector records three kinds of data:

* **stages** — named wall/CPU timers (``compile``, ``simulate``,
  ``verify``, …) entered via the :func:`stage` context manager;
* **counters** — simulator counter aggregation (flops, vector/scalar
  instruction and memory-op totals) fed by
  :meth:`Telemetry.record_counters`;
* **events** — an append-only JSONL trace (one JSON object per line)
  written through :meth:`Telemetry.emit`.

The module keeps one *active* collector in a global slot.  The hot
paths in :mod:`repro.workloads.runner` and
:mod:`repro.machine.simulator` call the module-level helpers, which
are no-ops when nothing is active, so plain ``run_kernel`` calls pay
one ``is None`` check.

This module deliberately imports nothing from the rest of the package
(beyond the stdlib and the dependency-free
:mod:`repro.resilience` base modules) so the machine and workload
layers can use it without import cycles.

Trace files are **crash-safe**: events append through a
:class:`~repro.resilience.store.DurableLog` (line-buffered, one JSON
object per line) and the scheduler flushes at stage boundaries, so a
killed sweep leaves a readable trace ending at its last boundary.
Reading is tolerant in return — :func:`read_trace` skips (and
counts) malformed lines instead of raising, and
:func:`summarize_trace` reports the skip count, so a half-written
final line never takes the post-mortem down with it.  A trace write
that starts failing (disk full, injected ``trace.write`` fault)
degrades gracefully: file output is dropped, in-memory collection
continues, and the degradation is itself recorded as an event.

Trace event schema (see ``docs/sweep.md`` for the full field list)::

    {"event": "task_end", "t": 0.0123, "key": "lfk1:default", ...}

``t`` is seconds since the collector was created (monotonic clock).
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

from ..resilience import faults as _faults
from ..resilience.store import DurableLog


@dataclass
class StageTotals:
    """Accumulated wall/CPU time and entry count for one stage."""

    calls: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0

    def add(self, wall_s: float, cpu_s: float) -> None:
        self.calls += 1
        self.wall_s += wall_s
        self.cpu_s += cpu_s


class Telemetry:
    """One telemetry collection scope (typically one sweep or task)."""

    def __init__(self, trace_path: str | None = None):
        self._t0 = time.monotonic()
        self.stages: dict[str, StageTotals] = {}
        self.counters: Counter = Counter()
        self.events: list[dict] = []
        self._trace_path = trace_path
        self._trace_log: DurableLog | None = None
        #: set to the failure message if file output had to be dropped
        self.degraded: str | None = None
        self._checking = False
        if trace_path is not None:
            # Append: one CLI invocation may run several sweeps (e.g.
            # the five ablations) into one trace.  Callers that want a
            # fresh trace truncate the file first.  Appends are
            # line-buffered (flushed, not fsync'd) — the scheduler
            # fsyncs at stage boundaries via :meth:`flush`.
            self._trace_log = DurableLog(
                trace_path, fsync=False, checksum=False,
                keep_open=True,
            )

    # -- events --------------------------------------------------------

    def emit(self, event: str, **fields) -> None:
        """Record one trace event (and append it to the JSONL file)."""
        record = {"event": event,
                  "t": round(time.monotonic() - self._t0, 6)}
        record.update(fields)
        self.events.append(record)
        if self._trace_log is None or self._checking:
            return
        # A trace.write fault emits ``fault_injected`` back into this
        # collector during the check; that event stays in memory.
        self._checking = True
        try:
            spec = _faults.check("trace.write",
                                 path=self._trace_path or "")
        finally:
            self._checking = False
        try:
            if spec is not None and spec.kind == "io-error":
                raise OSError(
                    f"injected I/O error: trace write to "
                    f"{self._trace_path}"
                )
            self._trace_log.append(record)
        except OSError as exc:
            # Degrade, don't die: the trace is observability, not the
            # result.  Keep collecting in memory and remember why the
            # file went quiet.
            self.degraded = f"{type(exc).__name__}: {exc}"
            self._trace_log.detach()
            self._trace_log = None
            self.events.append({
                "event": "trace_degraded",
                "t": round(time.monotonic() - self._t0, 6),
                "error": self.degraded,
            })

    def flush(self, fsync: bool = False) -> None:
        """Stage-boundary flush (optionally fsync) of the trace file."""
        if self._trace_log is not None:
            try:
                self._trace_log.flush(fsync=fsync)
            except OSError:
                pass

    def close(self) -> None:
        if self._trace_log is not None:
            self._trace_log.close()
            self._trace_log = None

    # -- stages --------------------------------------------------------

    def record_stage(self, name: str, wall_s: float, cpu_s: float) -> None:
        self.stages.setdefault(name, StageTotals()).add(wall_s, cpu_s)

    def stage_snapshot(self) -> dict[str, dict[str, float]]:
        """Stages as plain dicts (picklable / JSON-able)."""
        return {
            name: {"calls": s.calls,
                   "wall_s": round(s.wall_s, 6),
                   "cpu_s": round(s.cpu_s, 6)}
            for name, s in sorted(self.stages.items())
        }

    # -- counters ------------------------------------------------------

    def record_counters(self, counts: dict[str, int | float]) -> None:
        """Aggregate simulator counters (summed across runs)."""
        self.counters.update(counts)


#: The active collector, or None (module-level helpers are no-ops).
_ACTIVE: Telemetry | None = None


def activate(telemetry: Telemetry) -> Telemetry:
    """Install a collector as the active one (returns it)."""
    global _ACTIVE
    _ACTIVE = telemetry
    return telemetry


def deactivate() -> None:
    global _ACTIVE
    if _ACTIVE is not None:
        _ACTIVE.close()
    _ACTIVE = None


def current() -> Telemetry | None:
    return _ACTIVE


def reset() -> None:
    """Drop any active collector (used by ``clear_caches`` and by
    freshly forked workers, which must not inherit the parent's
    half-open trace handle)."""
    global _ACTIVE
    if _ACTIVE is not None:
        # Do not close(): a forked child shares the parent's file
        # descriptor and closing it would corrupt the parent's trace.
        if _ACTIVE._trace_log is not None:
            _ACTIVE._trace_log.detach()
            _ACTIVE._trace_log = None
        _ACTIVE = None


os.register_at_fork(after_in_child=reset)


@contextmanager
def collecting(trace_path: str | None = None):
    """``with collecting() as t:`` — activate a fresh collector."""
    global _ACTIVE
    telemetry = Telemetry(trace_path)
    previous = _ACTIVE
    _ACTIVE = telemetry
    try:
        yield telemetry
    finally:
        telemetry.close()
        _ACTIVE = previous


@contextmanager
def stage(name: str):
    """Time a named stage into the active collector (no-op if none)."""
    telemetry = _ACTIVE
    if telemetry is None:
        yield
        return
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    try:
        yield
    finally:
        telemetry.record_stage(
            name, time.perf_counter() - wall0, time.process_time() - cpu0
        )
        # Stage boundaries are the crash-safety flush points: whatever
        # was traced during the stage reaches the file before the next
        # stage begins.
        telemetry.flush()


def emit(event: str, **fields) -> None:
    if _ACTIVE is not None:
        _ACTIVE.emit(event, **fields)


def record_counters(counts: dict[str, int | float]) -> None:
    if _ACTIVE is not None:
        _ACTIVE.record_counters(counts)


# ----------------------------------------------------------------------
# Trace consumption
# ----------------------------------------------------------------------

def read_trace(path: str) -> list[dict]:
    """Load a JSONL trace file back into a list of event dicts.

    Malformed lines (a torn final write, a corrupted byte) are
    skipped, not fatal; use :func:`read_trace_report` to also learn
    how many were dropped.
    """
    events, _skipped = read_trace_report(path)
    return events


def read_trace_report(path: str) -> tuple[list[dict], int]:
    """Tolerant trace load: ``(events, malformed_line_count)``."""
    events: list[dict] = []
    skipped = 0
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                skipped += 1
                continue
            if isinstance(record, dict) and "event" in record:
                events.append(record)
            else:
                skipped += 1
    return events, skipped


def summarize_trace(events: list[dict] | str) -> str:
    """End-of-sweep summary table, computed *from the trace events*.

    Accepts either a loaded event list or a path to a JSONL trace.
    The summary is the operator-facing digest: task counts by status,
    retries, cache/dedup savings, per-stage time totals, and the
    aggregated simulator counters.
    """
    from ..experiments.formatting import TextTable

    malformed = 0
    if isinstance(events, str):
        events, malformed = read_trace_report(events)
    by_kind = Counter(e["event"] for e in events)
    stage_totals: dict[str, StageTotals] = {}
    counters: Counter = Counter()
    statuses: Counter = Counter()
    for e in events:
        if e["event"] == "task_end":
            statuses[e.get("status", "ok")] += 1
            for name, s in (e.get("stages") or {}).items():
                stage_totals.setdefault(name, StageTotals()).add(
                    s.get("wall_s", 0.0), s.get("cpu_s", 0.0)
                )
            counters.update(e.get("counters") or {})
    table = TextTable(["metric", "value"])
    sweep_end = next(
        (e for e in reversed(events) if e["event"] == "sweep_end"), None
    )
    if sweep_end is not None:
        table.add_row("wall time (s)", f"{sweep_end['wall_s']:.3f}")
        table.add_row("jobs", sweep_end.get("jobs", 1))
    table.add_row("tasks ok", statuses.get("ok", 0)
                  + statuses.get("cached", 0))
    table.add_row("tasks errored", statuses.get("error", 0))
    table.add_row("tasks failed", by_kind.get("task_failed", 0))
    table.add_row("cache hits", statuses.get("cached", 0))
    table.add_row("retries", by_kind.get("task_retry", 0))
    table.add_row("worker crashes", by_kind.get("worker_crash", 0))
    table.add_row("timeouts", by_kind.get("task_timeout", 0))
    table.add_row("checkpoint skips", by_kind.get("checkpoint_skip", 0))
    if malformed:
        table.add_row("malformed trace lines", malformed)
    if by_kind.get("fault_injected"):
        table.add_row("faults injected", by_kind["fault_injected"])
    if by_kind.get("budget_exceeded"):
        table.add_row("budget exceeded", by_kind["budget_exceeded"])
    for name, totals in sorted(stage_totals.items()):
        table.add_row(
            f"stage {name} (wall s / cpu s)",
            f"{totals.wall_s:.3f} / {totals.cpu_s:.3f}",
        )
    for name in sorted(counters):
        table.add_row(f"total {name}", counters[name])
    return table.render()

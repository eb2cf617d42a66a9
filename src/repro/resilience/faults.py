"""Deterministic chaos / fault-injection harness.

A :class:`FaultPlan` is a declarative list of faults to inject at
named **sites** instrumented throughout the stack.  Activating a plan
(:func:`activate` / the :func:`chaos` context manager / the CLI's
``macs-repro --chaos plan.json``) arms every fault; code at a site
calls :func:`check` — a no-op ``is None`` test when nothing is active
— and interprets the matched :class:`FaultSpec`.

Plan file schema (JSON)::

    {
      "faults": [
        {"site": "store.append",  "kind": "torn-write",
         "path": "ckpt", "after": 2, "count": 1},
        {"site": "store.append",  "kind": "io-error"},
        {"site": "trace.write",   "kind": "io-error"},
        {"site": "worker",        "kind": "exit", "task": 0,
         "count": 1},
        {"site": "clock",         "kind": "skew", "value": 30.0}
      ]
    }

Fields:

* ``site`` — where to inject.  Instrumented sites: ``store.append``,
  ``store.atomic_write``, ``trace.write`` (telemetry), ``clock``
  (wall-clock skew, seconds), ``worker`` (sweep worker processes),
  ``service.accept`` (analysis-server connections dropped at
  accept), ``fleet.replica`` (a fleet client partitions the replica
  it is about to send to) and ``fleet.l2_write`` (shared L2 writes
  fail; the store degrades to read-only).
* ``kind`` — ``io-error`` (raise ``OSError``), ``torn-write`` (write
  a prefix of the bytes, then raise), ``skew`` (add ``value`` to a
  clock), or — for ``site="worker"`` — ``raise``/``exit``/``hang``.
* ``after`` / ``count`` — skip the first ``after`` hits of the site,
  then fire on the next ``count`` hits (``null`` = every hit).
* ``path`` — substring filter on the artifact path (store/trace
  sites).
* ``task`` / ``count`` — for worker faults: the grid index to poison
  and how many attempts fail before it recovers.
* ``value`` — skew magnitude for ``clock``, in seconds.  A fired
  ``clock`` hit advances the skewed wall clock *permanently*, so
  ``after`` selects which clock read jumps forward (``after=1`` skips
  a deadline's own start-time read).

Matching is purely counter-based, so a plan injects the same faults
at the same points on every run — chaos tests are deterministic.
Every fired fault is recorded (:func:`fired`) and emitted to the
active telemetry trace as a ``fault_injected`` event.

Worker processes never inherit an armed plan: forked children
disarm at fork (worker faults travel explicitly through the
scheduler's ``inject_faults`` argument instead).
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field

from ..errors import ExperimentError

_SITES_HINT = (
    "store.append, store.atomic_write, trace.write, clock, worker, "
    "service.accept, fleet.replica, fleet.l2_write"
)
_KINDS = ("io-error", "torn-write", "skew", "raise", "exit", "hang")
_WORKER_KINDS = ("raise", "exit", "hang")


@dataclass(frozen=True)
class FaultSpec:
    """One declarative fault."""

    site: str
    kind: str
    after: int = 0
    count: int | None = 1
    path: str = ""
    task: int | None = None
    value: float = 0.0

    def __post_init__(self):
        if not self.site:
            raise ExperimentError("fault spec needs a site "
                                  f"(one of: {_SITES_HINT})")
        if self.kind not in _KINDS:
            raise ExperimentError(
                f"unknown fault kind {self.kind!r}; known: "
                f"{', '.join(_KINDS)}"
            )
        if self.site == "worker":
            if self.kind not in _WORKER_KINDS:
                raise ExperimentError(
                    f"worker faults must be one of "
                    f"{', '.join(_WORKER_KINDS)}, got {self.kind!r}"
                )
            if self.task is None or self.task < 0:
                raise ExperimentError(
                    "worker faults need a non-negative 'task' index"
                )
        if self.after < 0:
            raise ExperimentError("fault 'after' must be >= 0")
        if self.count is not None and self.count < 1:
            raise ExperimentError("fault 'count' must be >= 1 or null")

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSpec":
        if not isinstance(data, dict):
            raise ExperimentError(
                f"each fault must be an object, got {type(data).__name__}"
            )
        known = {"site", "kind", "after", "count", "path", "task",
                 "value"}
        unknown = set(data) - known
        if unknown:
            raise ExperimentError(
                f"unknown fault field(s) {sorted(unknown)}; known: "
                f"{sorted(known)}"
            )
        return cls(
            site=str(data.get("site", "")),
            kind=str(data.get("kind", "")),
            after=int(data.get("after", 0)),
            count=(None if data.get("count", 1) is None
                   else int(data.get("count", 1))),
            path=str(data.get("path", "")),
            task=data.get("task"),
            value=float(data.get("value", 0.0)),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A named, ordered collection of faults."""

    faults: tuple[FaultSpec, ...] = ()
    name: str = "chaos"

    @classmethod
    def from_dict(cls, data: dict, name: str = "chaos") -> "FaultPlan":
        if not isinstance(data, dict) or "faults" not in data:
            raise ExperimentError(
                "a fault plan is an object with a 'faults' list"
            )
        if not isinstance(data["faults"], list):
            raise ExperimentError("'faults' must be a list")
        return cls(
            faults=tuple(
                FaultSpec.from_dict(item) for item in data["faults"]
            ),
            name=str(data.get("name", name)),
        )

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        try:
            with open(path, encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError as exc:
            raise ExperimentError(
                f"cannot read fault plan {path}: {exc}"
            ) from exc
        except json.JSONDecodeError as exc:
            raise ExperimentError(
                f"{path}: fault plan is not valid JSON: {exc}"
            ) from exc
        return cls.from_dict(data, name=os.path.basename(path))

    def worker_faults(self) -> dict[int, tuple[str, int]]:
        """``site="worker"`` faults in the sweep scheduler's
        ``inject_faults`` form: {task_index: (kind, fail_attempts)}."""
        mapping: dict[int, tuple[str, int]] = {}
        for spec in self.faults:
            if spec.site == "worker":
                attempts = 99 if spec.count is None else spec.count
                mapping[int(spec.task)] = (spec.kind, attempts)
        return mapping


class _Runtime:
    """Armed plan + per-spec hit counters + fired-fault log."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.hits = [0] * len(plan.faults)
        self.fired: list[dict] = []
        self.clock_offset = 0.0

    def match(self, site: str, path: str) -> FaultSpec | None:
        for index, spec in enumerate(self.plan.faults):
            if spec.site != site:
                continue
            if spec.path and spec.path not in path:
                continue
            hit = self.hits[index]
            self.hits[index] = hit + 1
            if hit < spec.after:
                continue
            if (spec.count is not None
                    and hit >= spec.after + spec.count):
                continue
            self.fired.append(
                {"site": site, "kind": spec.kind, "path": path,
                 "hit": hit + 1}
            )
            return spec
        return None


_ACTIVE: _Runtime | None = None


def activate(plan: FaultPlan) -> FaultPlan:
    """Arm a fault plan process-wide (returns it)."""
    global _ACTIVE
    _ACTIVE = _Runtime(plan)
    return plan


def deactivate() -> None:
    global _ACTIVE
    _ACTIVE = None


def active_plan() -> FaultPlan | None:
    return _ACTIVE.plan if _ACTIVE is not None else None


def fired() -> list[dict]:
    """Faults fired so far under the armed plan (empty when none)."""
    return list(_ACTIVE.fired) if _ACTIVE is not None else []


@contextmanager
def chaos(plan: FaultPlan):
    """``with chaos(plan):`` — arm a plan for the block's duration."""
    global _ACTIVE
    previous = _ACTIVE
    activate(plan)
    try:
        yield plan
    finally:
        _ACTIVE = previous


def check(site: str, path: str = "") -> FaultSpec | None:
    """The fault point: the armed fault for this hit, or ``None``.

    One ``is None`` test when no plan is armed.  The caller interprets
    the returned spec's ``kind`` (this module never raises on behalf
    of a site, so each site stays in control of its failure mode).
    """
    runtime = _ACTIVE
    if runtime is None:
        return None
    spec = runtime.match(site, path)
    if spec is not None:
        # Best-effort observability; never let tracing break the test.
        try:
            from ..sweep import telemetry

            telemetry.emit(
                "fault_injected", site=site, kind=spec.kind,
                path=path,
            )
        except Exception:
            pass
    return spec


def clock_skew() -> float:
    """Accumulated wall-clock skew (seconds) from ``clock`` faults.

    Each *fired* hit of a ``clock`` fault permanently advances the
    skewed clock by ``value`` seconds — a step function in the site's
    hit counter, so ``after`` selects *which* clock read jumps.  (A
    constant offset would cancel out of every elapsed-time difference
    and never expire anything.)
    """
    runtime = _ACTIVE
    if runtime is None:
        return 0.0
    for index, spec in enumerate(runtime.plan.faults):
        if spec.site != "clock" or spec.kind != "skew":
            continue
        hit = runtime.hits[index]
        runtime.hits[index] = hit + 1
        if hit < spec.after:
            continue
        if spec.count is not None and hit >= spec.after + spec.count:
            continue
        runtime.clock_offset += spec.value
        runtime.fired.append(
            {"site": "clock", "kind": "skew", "path": "",
             "hit": hit + 1}
        )
    return runtime.clock_offset


# A forked sweep worker must not inherit the parent's armed plan (its
# counters, and therefore its determinism, belong to the parent);
# worker faults are delivered explicitly via ``inject_faults``.
os.register_at_fork(after_in_child=deactivate)

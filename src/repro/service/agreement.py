"""Static-vs-exact calibration: the agreement ledger.

The static tier answers ``advise`` requests without simulation, so
production needs continuous evidence that the predictions still track
the simulator.

:class:`CalibrationSampler` deterministically samples every Nth
``advise`` request; the server replays the sampled request **exactly**
(a ``run`` job in the worker pool) and hands both answers to
:meth:`CalibrationSampler.judge`, which compares the cycle bound and
every counter, applies the error gate, and appends an
:class:`AgreementVerdict` to the durable :class:`AgreementLedger`
(an append-only CRC-framed JSONL log — the PR-3 checkpoint format, so
``fsck`` and torn-write recovery come for free).

Gate policy is degrade, don't lie:

* **exact-tier** predictions claim bit-exactness; *any* cycle error
  is a defect — the verdict is ``flagged`` and
  :attr:`CalibrationSampler.flagged` latches so the service can
  surface it in ``healthz``.
* **model-tier** predictions are bounds with a documented gate; a
  breach auto-widens that kernel's gate (recorded in the ledger, so
  the drift is auditable) instead of failing the request.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from ..resilience.store import DurableLog

__all__ = [
    "AgreementLedger",
    "AgreementVerdict",
    "CalibrationSampler",
    "DEFAULT_AGREEMENT_GATE",
    "ledger_summary",
]

#: Documented cycle-bound error gate for static predictions (1%):
#: exact-tier answers must be well inside it (they are bit-exact by
#: construction), and the CI static-tier job fails on any breach.
DEFAULT_AGREEMENT_GATE = 0.01

#: Counter fields compared between static and exact metrics
#: (the sweep scheduler's run-metrics schema).
_COUNTERS = (
    "instructions",
    "vector_instructions",
    "scalar_instructions",
    "vector_memory_ops",
    "scalar_memory_ops",
    "flops",
)


@dataclass(frozen=True)
class AgreementVerdict:
    """One static-vs-exact comparison, as recorded in the ledger."""

    kernel: str
    key: str
    tier: str
    static_cycles: float
    exact_cycles: float
    rel_error: float
    gate: float
    within_gate: bool
    counters_match: bool
    mismatched_counters: tuple[str, ...] = ()
    #: ``ok`` | ``widened`` (model-tier gate breach, gate raised) |
    #: ``flagged`` (exact-tier claim violated — a defect)
    action: str = "ok"

    def to_record(self) -> dict[str, Any]:
        return {
            "kernel": self.kernel,
            "key": self.key,
            "tier": self.tier,
            "static_cycles": self.static_cycles,
            "exact_cycles": self.exact_cycles,
            "rel_error": self.rel_error,
            "gate": self.gate,
            "within_gate": self.within_gate,
            "counters_match": self.counters_match,
            "mismatched_counters": list(self.mismatched_counters),
            "action": self.action,
            "ts": time.time(),
        }


class AgreementLedger:
    """Durable append-only record of calibration verdicts."""

    def __init__(self, path: str):
        self.path = path
        self._log = DurableLog(path, fsync=False, checksum=True)

    def record(self, verdict: AgreementVerdict) -> None:
        self._log.append(verdict.to_record())

    def close(self) -> None:
        self._log.close()

    def load(self) -> list[dict[str, Any]]:
        """All intact records (read-only CRC scan, no repair)."""
        records, _report = self._log.recover(repair=False)
        return [r for r in records if isinstance(r, dict)]

    def summary(self) -> dict[str, Any]:
        return ledger_summary(self.load())


def ledger_summary(records: list[dict[str, Any]]) -> dict[str, Any]:
    """Aggregate view of a verdict list (the CI gate reads this)."""
    checks = len(records)
    breaches = [r for r in records if not r.get("within_gate", True)]
    flagged = [r for r in records if r.get("action") == "flagged"]
    widened = [r for r in records if r.get("action") == "widened"]
    max_rel = max(
        (float(r.get("rel_error", 0.0)) for r in records),
        default=0.0,
    )
    counter_mismatches = [
        r for r in records if not r.get("counters_match", True)
    ]
    return {
        "checks": checks,
        "breaches": len(breaches),
        "flagged": len(flagged),
        "widened": len(widened),
        "counter_mismatches": len(counter_mismatches),
        "max_rel_error": max_rel,
        "kernels": sorted({str(r.get("kernel", "")) for r in records}),
    }


@dataclass
class CalibrationSampler:
    """Deterministic request sampling + gate bookkeeping.

    ``every`` = 0 disables sampling entirely.  Counting is per
    process, so "every Nth advise request" is exact regardless of
    cache hits upstream of the sampler.
    """

    every: int = 0
    gate: float = DEFAULT_AGREEMENT_GATE
    ledger: AgreementLedger | None = None
    _seen: int = 0
    #: per-kernel gates widened past the base by model-tier breaches
    widened_gates: dict[str, float] = field(default_factory=dict)
    #: latched on any exact-tier breach (surfaced via healthz)
    flagged: bool = False

    def should_sample(self) -> bool:
        """Advance the request counter; True on every Nth request."""
        if self.every <= 0:
            return False
        self._seen += 1
        return self._seen % self.every == 0

    def effective_gate(self, kernel: str) -> float:
        return max(self.gate, self.widened_gates.get(kernel, 0.0))

    def judge(
        self,
        kernel: str,
        key: str,
        static_body: dict[str, Any],
        exact_metrics: dict[str, Any],
    ) -> AgreementVerdict:
        """Compare one sampled request's static and exact answers.

        ``static_body`` is the ``advise`` response body;
        ``exact_metrics`` is the ``run`` replay's metrics dict.  The
        verdict is recorded in the ledger (when one is attached)
        before it is returned.
        """
        tier = str(static_body.get("tier", "model"))
        static_cycles = float(static_body.get("cycles", 0.0))
        exact_cycles = float(exact_metrics.get("cycles", 0.0))
        if exact_cycles > 0:
            rel_error = abs(static_cycles - exact_cycles) / exact_cycles
        else:
            rel_error = 0.0 if static_cycles == 0 else float("inf")

        static_counters = static_body.get("metrics") or {}
        mismatched = tuple(
            name
            for name in _COUNTERS
            if static_counters.get(name) != exact_metrics.get(name)
        )

        gate = self.effective_gate(kernel)
        within = rel_error <= gate
        action = "ok"
        if tier == "exact" and (rel_error > 0.0 or mismatched):
            # An exact-tier prediction is a bit-exactness claim; any
            # delta is a defect, never something to widen away.
            action = "flagged"
            within = False
            self.flagged = True
        elif not within:
            # Model-tier drift: widen this kernel's gate (auditable in
            # the ledger) so serving keeps degrading gracefully.
            action = "widened"
            self.widened_gates[kernel] = rel_error * 1.25

        verdict = AgreementVerdict(
            kernel=kernel,
            key=key,
            tier=tier,
            static_cycles=static_cycles,
            exact_cycles=exact_cycles,
            rel_error=rel_error,
            gate=gate,
            within_gate=within,
            counters_match=not mismatched,
            mismatched_counters=mismatched,
            action=action,
        )
        if self.ledger is not None:
            self.ledger.record(verdict)
        return verdict

"""The ``advise`` body's prediction: a simulated run in the static
tier's terms.

:func:`repro.model.predict_kernel` takes ``t_p`` and the six counters
from the kernel's memoized run (:func:`repro.workloads.run_kernel`),
and :func:`predict_program` wraps that run's
:class:`~repro.machine.simulator.SimulationResult` once per cold
prediction.  The prediction is the simulator's own answer, so it is
always exact: ``tier`` is ``"exact"`` and the ``advise`` body's
``cycles_low``/``cycles_high`` interval is the single point
``cycles``.  ``perfbench/tracer.py`` records a span around this
function by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar

if TYPE_CHECKING:
    from ..machine.simulator import SimulationResult

__all__ = ["StaticPrediction", "predict_program"]


@dataclass(frozen=True)
class StaticPrediction:
    """One simulated run's cycles and counters, as ``advise`` reports
    them."""

    result: SimulationResult
    tier: ClassVar[str] = "exact"

    @property
    def cycles(self) -> float:
        return self.result.cycles


def predict_program(result: SimulationResult) -> StaticPrediction:
    """The static tier's view of one kernel run."""
    return StaticPrediction(result)

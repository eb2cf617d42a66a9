"""The static tier: full MACS advisor answers for ``advise``.

:func:`predict_kernel` is the serving-side entry point behind the
service's ``advise`` request kind.  The M/A/C/S bounds never need a
simulator, so it derives the MACS hierarchy with ``measure=False``;
``t_p`` is a measured run, which it takes, with the six counters, from
:func:`repro.workloads.run_kernel`'s memo — one simulation serves
``advise``, ``run`` and ``analyze`` for the same kernel, options and
machine.  It fuses that ``t_p`` into the hierarchy, so gap attribution
and ranked advice work exactly as they do in ``analyze``, and returns
everything as one frozen :class:`StaticKernelPrediction`.

Results are memoized on (kernel content, options, config) — the
``run_kernel`` key — in a :class:`~repro.memo.Memo`, so
``repro.workloads.clear_caches`` empties it and forked sweep workers
and service processes start without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any

from ..analysis.staticpred import StaticPrediction, predict_program
from ..compiler import CompiledKernel, CompilerOptions, DEFAULT_OPTIONS
from ..machine import DEFAULT_CONFIG, MachineConfig
from ..memo import Memo
from ..units import cycles_per_vector_iteration
from ..workloads.lfk import KernelSpec
from .advisor import Advice, advise
from .hierarchy import KernelAnalysis, analyze_kernel

__all__ = [
    "StaticKernelPrediction",
    "predict_kernel",
]

_STATIC_MEMO: Memo[tuple[object, ...], StaticKernelPrediction] = Memo(
    "static", 256
)


@dataclass(frozen=True)
class StaticKernelPrediction:
    """One ``advise`` answer: the run's ``t_p`` + MACS table + advice."""

    spec: KernelSpec
    compiled: CompiledKernel
    prediction: StaticPrediction
    #: None for scalar kernels (no vectorized loop, so no MACS
    #: hierarchy); the cycle prediction still stands.
    analysis: KernelAnalysis | None
    advice: tuple[Advice, ...]
    #: the machine description the prediction was computed for
    config: MachineConfig = DEFAULT_CONFIG

    # -- paper units ---------------------------------------------------

    @property
    def cycles(self) -> float:
        return self.prediction.cycles

    def cpl(self) -> float:
        return self.prediction.cycles / self.spec.inner_iterations

    def cpf(self) -> float:
        return self.prediction.cycles / self.spec.total_flops

    def metrics(self) -> dict[str, Any]:
        """The sweep scheduler's run-metrics schema."""
        result = self.prediction.result
        cycles = result.cycles
        if cycles > 0:
            seconds = cycles * self.config.clock_period_ns * 1e-9
            mflops = result.flops / seconds / 1e6
        else:
            mflops = 0.0
        return {
            "cycles": cycles,
            "instructions": result.instructions_executed,
            "vector_instructions": result.vector_instructions,
            "scalar_instructions": result.scalar_instructions,
            "vector_memory_ops": result.vector_memory_ops,
            "scalar_memory_ops": result.scalar_memory_ops,
            "flops": result.flops,
            "cpl": self.cpl(),
            "cpf": self.cpf(),
            "cycles_per_vector_iteration": cycles_per_vector_iteration(
                cycles, self.spec.inner_iterations, self.config.max_vl
            ),
            "mflops": mflops,
        }

    def to_payload(self) -> dict[str, Any]:
        """JSON-able service body for the ``advise`` request kind.

        Built on the first call; every later call returns the same
        dict, so a memoized prediction gives each caller that one
        object.  Treat it as read-only, like a memoized ``KernelRun``.
        """
        return self._payload

    @cached_property
    def _payload(self) -> dict[str, Any]:
        analysis = self.analysis
        cycles = self.prediction.cycles
        cpl = self.cpl()
        if analysis is None:
            macs: dict[str, float] | None = None
            report = (
                f"{self.spec.name.upper()} is a scalar kernel (no "
                "vectorized loop); the MACS hierarchy does not "
                "apply, but the static cycle prediction stands."
            )
        else:
            macs = {
                "ma_cpl": analysis.t_ma_cpl,
                "mac_cpl": analysis.t_mac_cpl,
                "macs_cpl": analysis.t_macs_cpl,
                "macs_f_cpl": analysis.macs_f.cpl,
                "macs_m_cpl": analysis.macs_m.cpl,
                "t_p_cpl": analysis.t_p_cpl,
            }
            report = analysis.report()
        # tier, exact and the one-point low/high intervals stay in
        # the schema so that advise bodies keep their bytes
        return {
            "kernel": self.spec.name,
            "tier": self.prediction.tier,
            "exact": True,
            "cycles": cycles,
            "cycles_low": cycles,
            "cycles_high": cycles,
            "cpl": cpl,
            "cpl_low": cpl,
            "cpl_high": cpl,
            "metrics": self.metrics(),
            "macs": macs,
            "advice": [
                {
                    "target": item.target.value,
                    "summary": item.summary,
                    "estimated_savings_cpl": item.estimated_savings_cpl,
                    "gap": item.gap,
                }
                for item in self.advice
            ],
            "report": report,
        }


def predict_kernel(
    spec_or_name: KernelSpec | str | int,
    options: CompilerOptions = DEFAULT_OPTIONS,
    config: MachineConfig = DEFAULT_CONFIG,
    n: int | None = None,
) -> StaticKernelPrediction:
    """One kernel's MACS bounds, measured ``t_p`` and ranked advice.

    ``t_p`` comes from :func:`~repro.workloads.run_kernel`'s memo, so
    a ``run`` or ``analyze`` of the same kernel, options and config
    reuses this simulation, and this call reuses theirs.  Memoized on
    the same key — repeated service requests are dictionary lookups.
    """
    from ..workloads import workload
    from ..workloads.runner import _spec_key, run_kernel, sized_spec

    spec = (
        spec_or_name
        if isinstance(spec_or_name, KernelSpec)
        else workload(str(spec_or_name))
        if isinstance(spec_or_name, str)
        else workload(f"lfk{spec_or_name}")
    )
    if n is not None:
        spec = sized_spec(spec, n)
    key = (_spec_key(spec), options, config)
    hit = _STATIC_MEMO.get(key)
    if hit is not None:
        return hit

    run = run_kernel(spec, options, config)
    prediction = predict_program(run.result)
    analysis: KernelAnalysis | None
    advice: tuple[Advice, ...]
    if any(instr.is_vector for instr in run.compiled.program):
        analysis = analyze_kernel(
            spec,
            options=options,
            config=config,
            measure=False,
            vl=config.max_vl,
        )
        # Fuse the run's t_p into the hierarchy: gap attribution and
        # the advisor consume it exactly as analyze_kernel's own.
        analysis.t_p_cpl = prediction.cycles / spec.inner_iterations
        advice = tuple(advise(analysis))
    else:
        # Scalar kernel: no vectorized loop, so no MACS hierarchy to
        # derive — the run's cycles are the whole answer.
        analysis = None
        advice = ()
    result = StaticKernelPrediction(
        spec=spec,
        compiled=run.compiled,
        prediction=prediction,
        analysis=analysis,
        advice=advice,
        config=config,
    )
    _STATIC_MEMO.put(key, result)
    return result

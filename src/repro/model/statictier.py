"""The static tier: full MACS advisor answers without simulation.

:func:`predict_kernel` is the serving-side entry point behind the
service's ``advise`` request kind.  It compiles a kernel (memoized),
statically predicts its whole-run cycles and counters with
:func:`repro.analysis.predict_program`, derives the complete MACS
hierarchy with ``measure=False`` (the M/A/C/S bounds never needed a
simulator), fuses the predicted ``t_p`` into the hierarchy so gap
attribution and ranked advice work exactly as they do on a measured
run, and returns everything as one frozen
:class:`StaticKernelPrediction`.

Results are memoized on (kernel content, options, config) — the same
key discipline as ``run_kernel`` — in a :class:`~repro.memo.Memo`, so
``repro.workloads.clear_caches`` empties it and forked sweep workers
and service processes start without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any

from ..analysis.staticpred import StaticPrediction, predict_program
from ..compiler import CompiledKernel, CompilerOptions, DEFAULT_OPTIONS
from ..compiler.scalar import LITERALS_SYMBOL, SCALARS_SYMBOL
from ..machine import DEFAULT_CONFIG, MachineConfig
from ..memo import Memo
from ..units import cycles_per_vector_iteration
from ..workloads.lfk import KernelSpec
from .advisor import Advice, advise
from .hierarchy import KernelAnalysis, analyze_kernel

__all__ = [
    "StaticKernelPrediction",
    "known_initial_memory",
    "predict_kernel",
]

_STATIC_MEMO: Memo[tuple[object, ...], StaticKernelPrediction] = Memo(
    "static", 256
)


def known_initial_memory(
    spec: KernelSpec, compiled: CompiledKernel
) -> dict[int, float]:
    """The words of the initial memory image the predictor may trust.

    Simulator memory starts zeroed; ``prepare_simulator`` then loads
    array data (statistically random — opaque to the predictor), the
    compiler's literal pool, and the kernel's scalar inputs.  The
    scalar region and the literal pool are therefore fully known:
    exactly the words strip-mine control flow reads.
    """
    known: dict[int, float] = {}
    layout = compiled.program.layout
    scalars = layout.lookup(SCALARS_SYMBOL)
    for word in range(
        scalars.offset_words,
        scalars.offset_words + scalars.size_bytes // 8,
    ):
        known[word] = 0.0
    if compiled.literal_values:
        base = layout.lookup(LITERALS_SYMBOL).offset_words
        for index, value in enumerate(compiled.literal_values):
            known[base + index] = float(value)
    for name, value in spec.scalar_inputs.items():
        known[compiled.scalar_word_offset(name)] = float(value)
    return known


@dataclass(frozen=True)
class StaticKernelPrediction:
    """One static serving answer: prediction + MACS table + advice."""

    spec: KernelSpec
    compiled: CompiledKernel
    prediction: StaticPrediction
    #: None for scalar kernels (no vectorized loop, so no MACS
    #: hierarchy); the static cycle prediction still stands.
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

    def cpl_interval(self) -> tuple[float, float]:
        """The confidence interval in CPL units."""
        iters = self.spec.inner_iterations
        return (
            self.prediction.cycles_low / iters,
            self.prediction.cycles_high / iters,
        )

    def metrics(self) -> dict[str, Any]:
        """The sweep scheduler's run-metrics schema, statically."""
        prediction = self.prediction
        cycles = prediction.cycles
        if cycles > 0:
            seconds = cycles * self.config.clock_period_ns * 1e-9
            mflops = prediction.flops / seconds / 1e6
        else:
            mflops = 0.0
        return {
            "cycles": cycles,
            "instructions": prediction.instructions_executed,
            "vector_instructions": prediction.vector_instructions,
            "scalar_instructions": prediction.scalar_instructions,
            "vector_memory_ops": prediction.vector_memory_ops,
            "scalar_memory_ops": prediction.scalar_memory_ops,
            "flops": prediction.flops,
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
        low, high = self.cpl_interval()
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
        return {
            "kernel": self.spec.name,
            "tier": self.prediction.tier,
            "exact": self.prediction.exact,
            "cycles": self.prediction.cycles,
            "cycles_low": self.prediction.cycles_low,
            "cycles_high": self.prediction.cycles_high,
            "cpl": self.cpl(),
            "cpl_low": low,
            "cpl_high": high,
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
    """Statically predict one kernel and derive its full MACS answer.

    Never constructs a :class:`~repro.machine.simulator.Simulator`.
    Memoized on (kernel content, options, config) — repeated service
    requests are dictionary lookups.
    """
    from ..workloads import workload
    from ..workloads.runner import _spec_key, compile_spec, sized_spec

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

    compiled = compile_spec(spec, options)
    prediction = predict_program(
        compiled.program,
        config,
        known_memory=known_initial_memory(spec, compiled),
        trips=spec.trip_profile or None,
    )
    analysis: KernelAnalysis | None
    advice: tuple[Advice, ...]
    if any(instr.is_vector for instr in compiled.program):
        analysis = analyze_kernel(
            spec,
            options=options,
            config=config,
            measure=False,
            vl=config.max_vl,
        )
        # Fuse the static t_p into the hierarchy: gap attribution and
        # the advisor consume it exactly as they would a measured run.
        analysis.t_p_cpl = prediction.cycles / spec.inner_iterations
        advice = tuple(advise(analysis))
    else:
        # Scalar kernel: no vectorized loop, so no MACS hierarchy to
        # derive — the static cycle prediction is the whole answer.
        analysis = None
        advice = ()
    result = StaticKernelPrediction(
        spec=spec,
        compiled=compiled,
        prediction=prediction,
        analysis=analysis,
        advice=advice,
        config=config,
    )
    _STATIC_MEMO.put(key, result)
    return result

"""Kernel execution harness.

Compiles a :class:`~repro.workloads.lfk.KernelSpec`, loads its input
data and scalar parameters into a simulator, runs it, and normalizes
the cycle count to the paper's units (CPL per vectorized-loop iteration
at VL = 128, and CPF).  Also verifies the outputs against the kernel's
NumPy reference when the compilation is functionally exact.

Both :func:`compile_spec` and :func:`run_kernel` memoize: the paper's
experiments re-run the same (kernel, options, config) triples dozens of
times across tables/figures, and everything here is deterministic, so
compiled kernels and whole runs are shared.  Treat cached
:class:`KernelRun` objects as read-only; :func:`clear_caches` empties
both memos and every other one (useful when benchmarking the simulator
itself).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from ..compiler import CompiledKernel, CompilerOptions, DEFAULT_OPTIONS, compile_kernel
from ..errors import WorkloadError
from ..machine import DEFAULT_CONFIG, MachineConfig, SimulationResult, Simulator
from ..memo import Memo, clear_memos
from ..resilience import faults as _faults
from ..sweep import telemetry
from ..units import MAX_VL, cycles_per_vector_iteration
from .lfk import KernelSpec, kernel

#: Compiled kernels, keyed on (source, name, IVDEP, options).  Kernel
#: sources are small and runs hold a few arrays each, so modest caps
#: suffice.
_COMPILE_MEMO: Memo[tuple, CompiledKernel] = Memo("compile", 512)
#: Whole runs as (run, verified), keyed on (spec content, options,
#: config).
_RUN_MEMO: Memo[tuple, tuple[KernelRun, bool]] = Memo("run", 256)


def clear_caches() -> None:
    """Empty every in-process memo (see :mod:`repro.memo`) and
    deactivate any telemetry collector left over from a sweep."""
    clear_memos()
    telemetry.reset()


def compile_spec(
    spec: KernelSpec, options: CompilerOptions = DEFAULT_OPTIONS
) -> CompiledKernel:
    """Compile a kernel spec with its required IVDEP setting (memoized)."""
    key = (spec.source, spec.name, spec.ivdep, options)
    compiled = _COMPILE_MEMO.get(key)
    if compiled is None:
        with telemetry.stage("compile"):
            compiled = compile_kernel(
                spec.source, spec.name, options.replace(ivdep=spec.ivdep)
            )
        _COMPILE_MEMO.put(key, compiled)
    return compiled


@dataclass
class KernelRun:
    """One simulated execution of a kernel."""

    spec: KernelSpec
    compiled: CompiledKernel
    result: SimulationResult
    outputs: dict[str, np.ndarray | float] = field(default_factory=dict)

    @property
    def cycles(self) -> float:
        return self.result.cycles

    def cpl(self) -> float:
        """Cycles per source inner-loop iteration (the paper's CPL)."""
        return self.result.cycles / self.spec.inner_iterations

    def cycles_per_vector_iteration(self) -> float:
        """Cycles per 128-element vectorized iteration (CPL * VL)."""
        return cycles_per_vector_iteration(
            self.result.cycles, self.spec.inner_iterations, MAX_VL
        )

    def cpf(self) -> float:
        """Cycles per source floating-point operation."""
        return self.result.cycles / self.spec.total_flops

    def metrics(self) -> dict:
        """The run-metrics schema: ``run`` and ``advise`` bodies and
        sweep cells all report this dict."""
        result = self.result
        return {
            "cycles": result.cycles,
            "instructions": result.instructions_executed,
            "vector_instructions": result.vector_instructions,
            "scalar_instructions": result.scalar_instructions,
            "vector_memory_ops": result.vector_memory_ops,
            "scalar_memory_ops": result.scalar_memory_ops,
            "flops": result.flops,
            "cpl": self.cpl(),
            "cpf": self.cpf(),
            "cycles_per_vector_iteration":
                self.cycles_per_vector_iteration(),
            "mflops": result.mflops,
        }

    def verify(self, rtol: float = 1e-9, atol: float = 1e-12) -> None:
        """Compare outputs against the NumPy reference.

        Raises :class:`WorkloadError` on mismatch.  Skipped (with an
        error) when the compilation is not functionally exact (e.g. the
        shifted-reuse ablation).
        """
        if not self.compiled.functionally_exact:
            raise WorkloadError(
                f"{self.spec.name}: compiled with performance-only "
                "transformations; outputs are not comparable"
            )
        data = _input_data(self.spec, self.compiled)
        expected = self.spec.reference(
            data, dict(self.spec.scalar_inputs)
        )
        for name, value in expected.items():
            actual = self.outputs[name]
            if np.isscalar(value) or np.ndim(value) == 0:
                if not np.isclose(actual, value, rtol=rtol, atol=atol):
                    raise WorkloadError(
                        f"{self.spec.name}: scalar {name}: "
                        f"expected {value}, got {actual}"
                    )
            else:
                mismatch = ~np.isclose(actual, value, rtol=rtol, atol=atol)
                if mismatch.any():
                    index = int(np.argmax(mismatch))
                    raise WorkloadError(
                        f"{self.spec.name}: array {name}: "
                        f"{int(mismatch.sum())} elements differ; first at "
                        f"[{index}]: expected {value[index]}, got "
                        f"{actual[index]}"
                    )


def _input_data(
    spec: KernelSpec, compiled: CompiledKernel
) -> dict[str, np.ndarray]:
    shapes = {
        info.name: info.size_words
        for info in compiled.table.arrays.values()
    }
    return spec.make_data(shapes)


def prepare_simulator(
    spec: KernelSpec,
    compiled: CompiledKernel,
    config: MachineConfig = DEFAULT_CONFIG,
    program=None,
) -> Simulator:
    """A simulator loaded with a kernel's data, optionally running a
    transformed variant of its program (A/X measurement codes)."""
    sim = Simulator(
        compiled.program if program is None else program, config
    )
    data = compiled.initial_data(_input_data(spec, compiled))
    for name, values in data.items():
        sim.load_symbol(name, values)
    for name, value in spec.scalar_inputs.items():
        sim.memory.load_array(
            compiled.scalar_word_offset(name), np.asarray([float(value)])
        )
    return sim


def sized_spec(base: KernelSpec, n: int) -> KernelSpec:
    """The same single-loop kernel at a different problem size ``n``.

    Used by the vector-length study and by sweep grids with a size
    axis; only meaningful for kernels whose trip profile is their
    ``n`` scalar input.
    """
    if n <= 0:
        raise WorkloadError(f"problem size must be positive, got {n}")
    return dataclasses.replace(
        base,
        scalar_inputs={**base.scalar_inputs, "n": n},
        inner_iterations=n,
        trip_profile=(n,),
    )


def _spec_key(spec: KernelSpec) -> tuple:
    """Content key for a spec (covers everything a run depends on)."""
    return (
        spec.name,
        spec.source,
        spec.ivdep,
        tuple(sorted(spec.scalar_inputs.items())),
        tuple(sorted(spec.array_seeds.items())),
        id(spec.reference),
    )


def run_kernel(
    spec_or_name: KernelSpec | str | int,
    options: CompilerOptions = DEFAULT_OPTIONS,
    config: MachineConfig = DEFAULT_CONFIG,
    compiled: CompiledKernel | None = None,
    verify: bool = False,
) -> KernelRun:
    """Compile (or reuse), load, and run one kernel on the simulator.

    Whole runs are memoized on (spec content, options, config) — the
    simulation is deterministic, so a repeat invocation returns the
    previously computed :class:`KernelRun` (treat it as read-only);
    :func:`repro.model.analyze_kernel` takes its ``t_p`` from here.
    Passing an explicit ``compiled`` kernel bypasses the run cache, so
    pass it only for a program the memo does not own, never for what
    :func:`compile_spec` returns.  An armed chaos plan bypasses the
    cache too: faults injected into one run must not be memoized and
    served back as a "clean" result later.
    """
    spec = (
        spec_or_name
        if isinstance(spec_or_name, KernelSpec)
        else kernel(spec_or_name)
    )
    key = None
    if compiled is None:
        if _faults.active_plan() is None:
            key = (_spec_key(spec), options, config)
            hit = _RUN_MEMO.get(key)
            if hit is not None:
                run, verified = hit
                if verify and not verified:
                    run.verify()
                    _RUN_MEMO.put(key, (run, True))
                return run
        compiled = compile_spec(spec, options)
    with telemetry.stage("simulate"):
        sim = prepare_simulator(spec, compiled, config)
        result = sim.run()
    outputs: dict[str, np.ndarray | float] = {}
    for name in spec.output_arrays:
        outputs[name] = sim.dump_symbol(name)
    for name in spec.output_scalars:
        offset = compiled.scalar_word_offset(name)
        outputs[name] = float(sim.memory.dump_array(offset, 1)[0])
    run = KernelRun(spec=spec, compiled=compiled, result=result,
                    outputs=outputs)
    if verify:
        with telemetry.stage("verify"):
            run.verify()
    if key is not None:
        _RUN_MEMO.put(key, (run, verify))
    return run

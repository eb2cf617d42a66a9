"""A/X performance measurement tooling (paper §3.6).

The paper's tools rewrite the compiled assembly into two measurement
codes:

* the **A-process** — all vector floating-point instructions deleted;
  what remains is the memory-access side of the computation (``t_a``);
* the **X-process** — all vector memory instructions deleted; what
  remains is the execute side (``t_x``).  Vector registers are primed
  with safe nonzero values first, since the deleted loads no longer
  initialize them (the numerical outputs of both codes are nonsense by
  design — only the timing matters).

Control flow is unaffected because loop control is scalar (the paper's
footnote 2).  Normally ``MAX(t_x, t_a) <= t_p <= t_x + t_a`` (eq. 18);
``t_p`` near the MAX means one process dominates, ``t_p`` near the sum
means the two barely overlap.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ModelError
from ..isa.instructions import Instruction
from ..isa.program import Program
from ..machine import DEFAULT_CONFIG, MachineConfig, SimulationResult
from ..memo import Memo
from ..workloads.lfk import KernelSpec
from ..workloads.runner import prepare_simulator
from ..compiler import CompiledKernel


def _filtered_program(
    program: Program, keep, suffix: str
) -> Program:
    """Copy of ``program`` with instructions failing ``keep`` deleted.

    Labels on deleted instructions migrate to the next kept one so
    branch targets survive.
    """
    instructions: list[Instruction] = []
    pending_label: str | None = None
    for instr in program:
        if not keep(instr):
            if instr.label is not None:
                if pending_label is not None:
                    raise ModelError(
                        f"cannot merge labels {pending_label!r} and "
                        f"{instr.label!r} while filtering"
                    )
                pending_label = instr.label
            continue
        if pending_label is not None:
            if instr.label is None:
                instr = instr.with_label(pending_label)
            pending_label = None
        instructions.append(instr)
    if pending_label is not None:
        raise ModelError(
            f"label {pending_label!r} has no instruction left to carry it"
        )
    return program.replaced(
        instructions, name=f"{program.name}{suffix}"
    )


def access_only_program(program: Program) -> Program:
    """The A-process: vector floating point deleted."""
    return _filtered_program(
        program, lambda i: not i.is_vector_fp, suffix="-aproc"
    )


def execute_only_program(program: Program) -> Program:
    """The X-process: vector memory accesses deleted."""
    return _filtered_program(
        program, lambda i: not i.is_vector_memory, suffix="-xproc"
    )


@dataclass(frozen=True)
class AXMeasurement:
    """Measured A/X run times for one kernel (CPL per source iteration)."""

    t_a_cpl: float
    t_x_cpl: float
    access_result: SimulationResult
    execute_result: SimulationResult

    def overlap_lower_bound(self) -> float:
        """``MAX(t_x, t_a)`` — perfect overlap floor (eq. 18)."""
        return max(self.t_a_cpl, self.t_x_cpl)

    def overlap_upper_bound(self) -> float:
        """``t_x + t_a`` — zero overlap ceiling (eq. 18)."""
        return self.t_a_cpl + self.t_x_cpl

    def overlap_quality(self, t_p_cpl: float) -> float:
        """Where ``t_p`` sits in [MAX, SUM]: 0 = perfect overlap,
        1 = no overlap.  Values above 1 indicate effects beyond simple
        serialization (e.g. interference)."""
        floor = self.overlap_lower_bound()
        ceiling = self.overlap_upper_bound()
        if ceiling <= floor:
            return 0.0
        return (t_p_cpl - floor) / (ceiling - floor)


#: Memoized A/X runs — several experiments measure the same kernels.
#: Values hold a strong reference to ``compiled`` so the id-based key
#: stays valid.
_AX_MEMO: Memo[
    tuple[str, str, int, MachineConfig],
    tuple[CompiledKernel, AXMeasurement],
] = Memo("ax", 128)


def measure_ax(
    spec: KernelSpec,
    compiled: CompiledKernel,
    config: MachineConfig = DEFAULT_CONFIG,
) -> AXMeasurement:
    """Run the A-process and X-process codes and report CPL (memoized)."""
    key = (spec.name, spec.source, id(compiled), config)
    hit = _AX_MEMO.get(key)
    if hit is not None:
        return hit[1]
    measurement = _measure_ax(spec, compiled, config)
    _AX_MEMO.put(key, (compiled, measurement))
    return measurement


def _measure_ax(
    spec: KernelSpec,
    compiled: CompiledKernel,
    config: MachineConfig,
) -> AXMeasurement:
    access = access_only_program(compiled.program)
    execute = execute_only_program(compiled.program)

    a_sim = prepare_simulator(spec, compiled, config, program=access)
    a_result = a_sim.run()

    x_sim = prepare_simulator(spec, compiled, config, program=execute)
    x_sim.regfile.prime_vectors()
    x_result = x_sim.run()

    return AXMeasurement(
        t_a_cpl=a_result.cycles / spec.inner_iterations,
        t_x_cpl=x_result.cycles / spec.inner_iterations,
        access_result=a_result,
        execute_result=x_result,
    )

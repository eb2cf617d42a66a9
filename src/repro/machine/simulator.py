"""The Convex C-240 CPU simulator.

Couples the functional semantics (:mod:`repro.machine.semantics`) with
the timing model (:mod:`repro.machine.pipeline`): each run lowers the
program once into per-instruction value closures and timing records,
and the pipeline's run loop executes every instruction for its values
and its clocks, so one run yields verified output values *and* a cycle
count.

This plays the role of the physical C-240 in the paper's methodology:
``t_p`` / ``t_a`` / ``t_x`` measurements and the calibration loops of
§3.2–3.3 are all obtained by running (possibly transformed) assembly
here and reading ``SimulationResult.cycles``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import SimulationError
from ..isa.program import Program
from ..sweep import telemetry
from .cache import CacheStats
from .config import DEFAULT_CONFIG, MachineConfig
from .memory import MemorySystem
from .pipeline import InstructionTiming, lower, run_lowered
from .semantics import decode_program, lower_step
from .state import RegisterFile

#: Default runaway guard (instruction executions, not cycles).
DEFAULT_MAX_INSTRUCTIONS = 5_000_000


@dataclass
class SimulationResult:
    """Outcome of one program run."""

    program_name: str
    cycles: float
    instructions_executed: int
    vector_instructions: int
    scalar_instructions: int
    vector_memory_ops: int
    scalar_memory_ops: int
    flops: int
    trace: list[InstructionTiming] = field(default_factory=list)
    #: populated when the scalar-cache model is enabled
    scalar_cache: CacheStats | None = None
    #: always ``None``; ``perfbench/tracer.py`` still reads it and
    #: takes ``None`` to mean no loop iterations were skipped
    fastpath: None = None
    #: clock period of the machine that produced the run (ns)
    clock_period_ns: float = DEFAULT_CONFIG.clock_period_ns

    @property
    def mflops(self) -> float:
        """Delivered MFLOPS at the machine's clock."""
        if self.cycles <= 0:
            return 0.0
        seconds = self.cycles * self.clock_period_ns * 1e-9
        return self.flops / seconds / 1e6

    def cycles_per_flop(self) -> float:
        if self.flops == 0:
            raise SimulationError(
                f"{self.program_name}: no floating point work executed"
            )
        return self.cycles / self.flops


class Simulator:
    """Executes :class:`~repro.isa.program.Program` objects.

    A fresh :class:`Simulator` owns a memory image sized from the
    program's data layout.  Typical use::

        sim = Simulator(program)
        sim.memory.load_array(sym.offset_words, values)
        result = sim.run()
    """

    def __init__(
        self,
        program: Program,
        config: MachineConfig = DEFAULT_CONFIG,
        extra_memory_words: int = 0,
    ):
        self.program = program
        self.config = config
        self.memory = MemorySystem(
            program.layout.total_words + extra_memory_words, config
        )
        self.regfile = RegisterFile(max_vl=config.max_vl)

    # ------------------------------------------------------------------

    def load_symbol(self, name: str, values: np.ndarray) -> None:
        """Initialize a data symbol's region from an array."""
        symbol = self.program.layout.lookup(name)
        if len(values) * 8 > symbol.size_bytes:
            raise SimulationError(
                f"{len(values)} words exceed symbol {name!r} "
                f"({symbol.size_bytes // 8} words)"
            )
        self.memory.load_array(symbol.offset_words, np.asarray(values, float))

    def dump_symbol(self, name: str, count: int | None = None) -> np.ndarray:
        symbol = self.program.layout.lookup(name)
        words = symbol.size_bytes // 8 if count is None else count
        return self.memory.dump_array(symbol.offset_words, words)

    # ------------------------------------------------------------------

    def run(
        self,
        max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
        record_trace: bool = False,
    ) -> SimulationResult:
        """Execute the program from its first instruction to fall-off.

        Raises a typed :class:`~repro.errors.BudgetExceededError` when
        the instruction budget (runaway loop) or the config's
        ``cycle_budget`` ceiling is exhausted, and
        :class:`SimulationError` when an instruction faults.
        """
        program = self.program
        regfile = self.regfile
        memory = self.memory
        layout = program.layout
        decoded = decode_program(program)
        lowered = lower(
            decoded,
            [lower_step(d, regfile, memory, layout) for d in decoded],
            self.config,
            memory,
        )
        # A/X-transformed code computes on nonsense values by design
        # (§3.6); suppress IEEE warnings for the whole run.
        with np.errstate(all="ignore"):
            totals = run_lowered(
                program.name, lowered, regfile, self.config, memory,
                max_instructions, record_trace,
            )

        if telemetry.current() is not None:
            telemetry.record_counters(
                {
                    "runs": 1,
                    "cycles": totals.cycles,
                    "instructions": totals.instructions_executed,
                    "vector_instructions": totals.vector_instructions,
                    "scalar_instructions": totals.scalar_instructions,
                    "vector_memory_ops": totals.vector_memory_ops,
                    "scalar_memory_ops": totals.scalar_memory_ops,
                    "flops": totals.flops,
                }
            )
        return SimulationResult(
            program_name=program.name,
            cycles=totals.cycles,
            instructions_executed=totals.instructions_executed,
            vector_instructions=totals.vector_instructions,
            scalar_instructions=totals.scalar_instructions,
            vector_memory_ops=totals.vector_memory_ops,
            scalar_memory_ops=totals.scalar_memory_ops,
            flops=totals.flops,
            trace=totals.trace,
            scalar_cache=totals.scalar_cache,
            clock_period_ns=self.config.clock_period_ns,
        )


def run_program(
    program: Program,
    config: MachineConfig = DEFAULT_CONFIG,
    initial_data: dict[str, np.ndarray] | None = None,
    record_trace: bool = False,
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
) -> SimulationResult:
    """One-shot convenience: build a simulator, load data, run."""
    sim = Simulator(program, config)
    for name, values in (initial_data or {}).items():
        sim.load_symbol(name, values)
    return sim.run(
        max_instructions=max_instructions, record_trace=record_trace
    )

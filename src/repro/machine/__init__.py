"""Cycle-level Convex C-240 simulator.

Public surface:

* :class:`MachineConfig` / :data:`DEFAULT_CONFIG` — machine parameters
  with ablation switches (refresh, bubbles, contention);
* :class:`MemorySystem` — 32-bank interleaved memory with refresh;
* :class:`RegisterFile` — functional register state;
* :class:`Simulator` / :func:`run_program` / :class:`SimulationResult`
  — execute programs for values and cycles;
* :mod:`~repro.machine.trace` helpers — Figure-2 style timelines;
* :class:`WorkloadMix` / :func:`run_under_contention` — §4.2
  multiprocessor contention measurements.
"""

from .cache import CacheStats, ScalarCache
from .config import DEFAULT_CONFIG, MachineConfig
from .memory import MemorySystem
from .multiprocessor import (
    ContentionComparison,
    WorkloadMix,
    contention_factor_for_load,
    run_under_contention,
)
from .pipeline import InstructionTiming
from .semantics import effective_address, execute_instruction
from .simulator import (
    DEFAULT_MAX_INSTRUCTIONS,
    SimulationResult,
    Simulator,
    run_program,
)
from .state import RegisterFile
from .trace import (
    PipeOccupancy,
    chime_completion_times,
    render_timeline,
    steady_state_chime_cycles,
    vector_occupancies,
)

__all__ = [
    "CacheStats",
    "ContentionComparison",
    "DEFAULT_CONFIG",
    "DEFAULT_MAX_INSTRUCTIONS",
    "InstructionTiming",
    "MachineConfig",
    "MemorySystem",
    "PipeOccupancy",
    "RegisterFile",
    "SimulationResult",
    "ScalarCache",
    "Simulator",
    "WorkloadMix",
    "chime_completion_times",
    "contention_factor_for_load",
    "effective_address",
    "execute_instruction",
    "render_timeline",
    "run_program",
    "run_under_contention",
    "steady_state_chime_cycles",
    "vector_occupancies",
]

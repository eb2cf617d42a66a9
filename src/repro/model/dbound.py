"""The MACS-D bound: binding the Data allocation (paper §3.1).

The paper: *"The peak memory rate could be reduced for nonunit stride
accesses by defining a fifth degree of freedom, D, after M, A, C and S
to bind the allocation (decomposition) of the data structures in
memory."*  This module implements that extension.

MACS costs every memory chime at one element per cycle.  MACS-D costs
each chime at the *bank-limited* streaming rate of its memory
operations: a stride that revisits a bank within the 8-cycle bank busy
time throttles the stream (stride 32 words on a 32-bank memory runs at
8 cycles/element).  For unit-stride (and any bank-conflict-free)
allocation, MACS-D equals MACS; for power-of-two strides it exposes
the allocation penalty the base model hides.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ModelError
from ..isa.instructions import Instruction
from ..isa.program import Program
from ..isa.timing import TimingTable, default_timing_table
from ..machine.config import DEFAULT_CONFIG, MachineConfig
from ..machine.memory import MemorySystem
from ..schedule.chimes import (
    REFRESH_FACTOR,
    ChimeRules,
    DEFAULT_RULES,
    partition_chimes,
)
from .macs import inner_loop_body


@dataclass(frozen=True)
class MacsDBound:
    """MACS-D result with the stride diagnosis."""

    cpl: float
    macs_cpl: float
    #: worst bank-limited rate over all memory streams (1.0 = clean)
    worst_stream_rate: float
    #: strides (words) whose streams run slower than 1 element/cycle
    conflicted_strides: tuple[int, ...]

    @property
    def allocation_penalty_cpl(self) -> float:
        """Run time attributable to the data allocation alone."""
        return self.cpl - self.macs_cpl


def _chime_rate(
    instructions: tuple[Instruction, ...],
    timings: TimingTable,
    memory: MemorySystem,
) -> tuple[float, float]:
    """(max per-element rate, bubble sum) of one chime under MACS-D."""
    max_rate = 0.0
    bubbles = 0
    for instr in instructions:
        timing = timings.lookup(instr.timing_key)
        rate = timing.z
        mem = instr.memory_operand
        if mem is not None:
            rate = max(rate, memory.stream_rate(mem.stride_words))
        max_rate = max(max_rate, rate)
        bubbles += timing.b
    return max_rate, bubbles


def macs_d_bound(
    program: Program,
    vl: int = 128,
    timings: TimingTable | None = None,
    rules: ChimeRules = DEFAULT_RULES,
    config: MachineConfig = DEFAULT_CONFIG,
    refresh: bool = True,
) -> MacsDBound:
    """MACS with the data-allocation (bank conflict) degree bound."""
    if vl <= 0:
        raise ModelError(f"VL must be positive, got {vl}")
    if timings is None:
        timings = default_timing_table()
    memory = MemorySystem(0, config)
    body = inner_loop_body(program)
    partition = partition_chimes(body, rules)

    worst = 1.0
    conflicted: set[int] = set()
    costs = []
    for chime in partition.chimes:
        rate, bubbles = _chime_rate(chime.instructions, timings, memory)
        costs.append(rate * vl + bubbles)
        for instr in chime.instructions:
            mem = instr.memory_operand
            if mem is None:
                continue
            stream = memory.stream_rate(mem.stride_words)
            if stream > 1.0:
                conflicted.add(mem.stride_words)
                worst = max(worst, stream)

    if partition.chimes and all(
        c.has_memory_op for c in partition.chimes
    ):
        total = sum(costs) * (REFRESH_FACTOR if refresh else 1.0)
    else:
        # Reuse the base partition's refresh-run logic by scaling each
        # chime cost proportionally.
        base_costs = [
            c.cycles(vl, timings) for c in partition.chimes
        ]
        base_total = partition.total_cycles(vl, timings, refresh)
        plain_total = sum(base_costs) if base_costs else 1.0
        scale = base_total / plain_total if plain_total else 1.0
        total = sum(costs) * scale

    macs_cpl = partition.cpl(vl, timings, refresh) if partition.chimes \
        else 0.0
    return MacsDBound(
        cpl=total / vl if partition.chimes else 0.0,
        macs_cpl=macs_cpl,
        worst_stream_rate=worst,
        conflicted_strides=tuple(sorted(conflicted)),
    )

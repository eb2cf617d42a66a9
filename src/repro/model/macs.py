"""The MACS bound (paper §3.4) and its f/m decompositions.

``t_MACS`` applies the chime-partitioning rules of §3.3 to the actual
compiled-and-scheduled inner loop, costs each chime at
``max(Z)*VL + sum(B)``, applies the memory-refresh rule, and divides
by VL.  ``t_MACS_f`` (written ``t_f''``) repeats the computation with
all vector memory instructions deleted; ``t_MACS_m`` (``t_m''``) with
all vector floating-point instructions deleted.  ``t_MACS`` exceeds
``max(t_f'', t_m'')`` whenever the full instruction mix cannot merge
perfectly into chimes — scalar-memory chime splits (LFK8) being the
dramatic case.

The three partitions of a compiled program are computed once per
:class:`ChimeRules` and kept on the :class:`Program`; the cost (VL,
timing table, refresh, chaining) is computed on every call.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ModelError
from ..isa.instructions import Instruction
from ..isa.program import Program
from ..isa.timing import TimingTable, default_timing_table
from ..schedule.chimes import (
    DEFAULT_RULES,
    REFRESH_FACTOR,
    ChimePartition,
    ChimeRules,
    partition_chimes,
)


def inner_loop_body(program: Program) -> tuple[Instruction, ...]:
    """The instruction sequence of the innermost (strip) loop."""
    return program.loop_slice(program.innermost_loop())


@dataclass(frozen=True)
class MacsBound:
    """A MACS-style bound with its chime partition."""

    partition: ChimePartition
    vl: int
    cpl: float

    @property
    def chime_count(self) -> int:
        return len(self.partition)


def _partition(
    program: Program, variant: str, rules: ChimeRules
) -> ChimePartition:
    """The chime partition of one variant of the inner loop: ``"full"``,
    or without vector memory (``"t_f"``) or vector FP (``"t_m"``).

    A partition depends only on the body and the rules, so each one is
    computed once and kept on the program (a recompile makes a new
    :class:`Program` and starts empty).  Two threads that miss together
    both compute the same immutable partition; either may be kept.
    """
    key = (variant, rules)
    partition = program._macs_partitions.get(key)
    if partition is None:
        body = inner_loop_body(program)
        if variant == "t_f":
            body = tuple(i for i in body if not i.is_vector_memory)
        elif variant == "t_m":
            body = tuple(i for i in body if not i.is_vector_fp)
        partition = partition_chimes(body, rules)
        program._macs_partitions[key] = partition
    return partition


def _bound_for(
    partition: ChimePartition,
    vl: int,
    timings: TimingTable,
    rules: ChimeRules,
    refresh: bool,
    refresh_factor: float,
) -> MacsBound:
    cpl = (
        partition.cpl(vl, timings, refresh, rules.chaining, refresh_factor)
        if len(partition) else 0.0
    )
    return MacsBound(partition=partition, vl=vl, cpl=cpl)


def macs_bound(
    program: Program,
    vl: int = 128,
    timings: TimingTable | None = None,
    rules: ChimeRules = DEFAULT_RULES,
    refresh: bool = True,
    refresh_factor: float = REFRESH_FACTOR,
) -> MacsBound:
    """``t_MACS`` of a compiled program's innermost loop."""
    if timings is None:
        timings = default_timing_table()
    if vl <= 0:
        raise ModelError(f"VL must be positive, got {vl}")
    return _bound_for(
        _partition(program, "full", rules), vl, timings, rules, refresh,
        refresh_factor,
    )


def macs_f_bound(
    program: Program,
    vl: int = 128,
    timings: TimingTable | None = None,
    rules: ChimeRules = DEFAULT_RULES,
    refresh: bool = True,
    refresh_factor: float = REFRESH_FACTOR,
) -> MacsBound:
    """``t_f''``: MACS applied with vector memory operations deleted."""
    if timings is None:
        timings = default_timing_table()
    return _bound_for(
        _partition(program, "t_f", rules), vl, timings, rules, refresh,
        refresh_factor,
    )


def macs_m_bound(
    program: Program,
    vl: int = 128,
    timings: TimingTable | None = None,
    rules: ChimeRules = DEFAULT_RULES,
    refresh: bool = True,
    refresh_factor: float = REFRESH_FACTOR,
) -> MacsBound:
    """``t_m''``: MACS applied with vector floating point deleted."""
    if timings is None:
        timings = default_timing_table()
    return _bound_for(
        _partition(program, "t_m", rules), vl, timings, rules, refresh,
        refresh_factor,
    )

"""Chime partitioning (paper §3.3).

A *chime* is a group of vector instructions executing concurrently on
the VP's three function pipes, chained where dependent.  The paper's
rules, each individually toggleable for ablation studies:

1. at most one vector instruction per function pipe per chime;
2. at most **two reads and one write per vector register pair**
   (``{v0,v4} {v1,v5} {v2,v6} {v3,v7}``) per chime;
3. a chime including a vector memory access cannot span a scalar
   memory access — the chime is terminated at the scalar reference
   (but FP-only chimes span scalar memory freely, which is why LFK8's
   scalar loads hurt ``t_MACS`` and not ``t_f''``);
4. scalar non-memory instructions are transparent (masked by the VP).

A chime's steady-state cost is ``max(Z_i) * VL + sum(B_i)`` (paper
eq. 13); the memory-refresh rule multiplies every run of four or more
consecutive memory-containing chimes by 1.02 (§3.4).  The chime list
repeats every loop iteration, so runs are detected circularly.

A partition depends only on the loop body and the :class:`ChimeRules`,
so :class:`ChimePartition` and :class:`Chime` are immutable and may be
shared.  The MACS bounds (:mod:`repro.model.macs`) partition each
compiled program's full, ``t_f''`` and ``t_m''`` bodies once per rule
set and keep the partitions on the program; the cost, which depends
on VL, the timing table, refresh and chaining, is computed per call.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from ..errors import ScheduleError
from ..isa.instructions import Instruction, Pipe
from ..isa.registers import Register
from ..isa.timing import TimingTable, default_timing_table

if TYPE_CHECKING:
    from ..machine.config import MachineConfig

#: Refresh penalty factor: an 8-cycle refresh every 400 cycles (§3.2).
REFRESH_FACTOR = 1.02
#: Minimum run of consecutive memory chimes that exposes refreshes.
REFRESH_RUN_LENGTH = 4


def refresh_factor_for(config: "MachineConfig") -> float:
    """The refresh penalty factor a machine description implies.

    ``1 + duration/period``: for the paper's 8-cycle refresh every 400
    cycles this is exactly :data:`REFRESH_FACTOR` (1.02, float-exact).
    """
    if not config.refresh_enabled:
        return 1.0
    return 1.0 + config.refresh_duration / config.refresh_period


@dataclass(frozen=True)
class ChimeRules:
    """Which partitioning constraints to enforce (ablation switches).

    ``chaining`` does not change the partition itself — it switches the
    chime *cost* model: chained chimes overlap their instructions
    (``max(Z*VL) + sum(B)``, eq. 13); without chaining every stream in
    the chime runs back to back (``sum(Z*VL) + sum(B)``).
    """

    enforce_register_pairs: bool = True
    scalar_memory_splits: bool = True
    chaining: bool = True

    @classmethod
    def for_machine(cls, config: "MachineConfig") -> "ChimeRules":
        """The chime rules a machine description declares."""
        return cls(
            enforce_register_pairs=config.chime_register_pairs,
            scalar_memory_splits=config.chime_scalar_memory_splits,
            chaining=config.chaining_enabled,
        )


DEFAULT_RULES = ChimeRules()


@dataclass(frozen=True, slots=True)
class Chime:
    """One group of concurrently executing vector instructions.

    :func:`partition_chimes` records each instruction's Table 1 key and
    the chime's memory flag as it builds the chime, so costing a chime
    never classifies its instructions again.
    """

    instructions: tuple[Instruction, ...] = ()
    #: True when a scalar memory access forced this chime to end
    split_by_scalar_memory: bool = False
    #: each instruction's Table 1 timing key, in order
    timing_keys: tuple[str, ...] = ()
    #: True when the chime holds a vector load or store
    has_memory_op: bool = False

    def pipes_used(self) -> set[Pipe]:
        return {i.pipe for i in self.instructions if i.pipe is not None}

    def cycles(
        self, vl: int, timings: TimingTable, chaining: bool = True
    ) -> float:
        """Steady-state cost: ``max(Z * VL_eff) + sum(B)`` (eq. 13,
        with each instruction's VL floored at its §3.2 threshold).

        Without chaining the chime's streams cannot overlap, so the
        cost degrades to ``sum(Z * VL_eff) + sum(B)``.
        """
        if not self.timing_keys:
            raise ScheduleError("empty chime has no cost")
        max_stream = 0.0
        total_stream = 0.0
        total_b = 0
        for key in self.timing_keys:
            timing = timings.lookup(key)
            stream = timing.z * timing.effective_vl(vl)
            max_stream = max(max_stream, stream)
            total_stream += stream
            total_b += timing.b
        return (max_stream if chaining else total_stream) + total_b

    def __len__(self) -> int:
        return len(self.instructions)


class _VectorOp(NamedTuple):
    """A vector instruction as the chime rules see it, classified once."""

    instr: Instruction
    pipe: Pipe
    timing_key: str
    is_memory: bool
    #: register pair of each vector source operand, repeats included
    pair_reads: tuple[int, ...]
    #: register pair of each vector register written
    pair_writes: tuple[int, ...]


def _classify(instr: Instruction) -> _VectorOp:
    timing_key = instr.timing_key
    if timing_key is None:
        raise ScheduleError(
            f"vector instruction {instr} has no timing class"
        )
    pipe = instr.pipe
    assert pipe is not None
    return _VectorOp(
        instr,
        pipe,
        timing_key,
        instr.is_vector_memory,
        tuple(
            operand.pair_index for operand in instr.sources
            if isinstance(operand, Register) and operand.is_vector
        ),
        tuple(reg.pair_index for reg in instr.vector_writes),
    )


class _ChimeBuilder:
    """Incremental constraint tracking for the current chime."""

    def __init__(self, rules: ChimeRules):
        self.rules = rules
        self.ops: list[_VectorOp] = []
        self._has_memory_op = False
        self._pipes: set[Pipe] = set()
        self._pair_reads: dict[int, int] = {}
        self._pair_writes: dict[int, int] = {}
        self._scalar_memory_barrier = False

    def note_scalar_memory(self) -> bool:
        """Record a scalar memory access; True if the chime must end."""
        if not self.rules.scalar_memory_splits:
            return False
        if self._has_memory_op:
            return True  # terminated at the later of the two references
        self._scalar_memory_barrier = True
        return False

    def fits(self, op: _VectorOp) -> bool:
        if op.pipe in self._pipes:
            return False
        if op.is_memory and self._scalar_memory_barrier:
            return False  # cannot span the scalar memory reference
        if self.rules.enforce_register_pairs:
            reads = dict(self._pair_reads)
            for pair in op.pair_reads:
                reads[pair] = reads.get(pair, 0) + 1
                if reads[pair] > 2:
                    return False
            for pair in op.pair_writes:
                if self._pair_writes.get(pair, 0) + 1 > 1:
                    return False
        return True

    def add(self, op: _VectorOp) -> None:
        self.ops.append(op)
        self._pipes.add(op.pipe)
        self._has_memory_op = self._has_memory_op or op.is_memory
        for pair in op.pair_reads:
            self._pair_reads[pair] = self._pair_reads.get(pair, 0) + 1
        for pair in op.pair_writes:
            self._pair_writes[pair] = self._pair_writes.get(pair, 0) + 1

    def chime(self, split: bool) -> Chime:
        return Chime(
            instructions=tuple(op.instr for op in self.ops),
            split_by_scalar_memory=split,
            timing_keys=tuple(op.timing_key for op in self.ops),
            has_memory_op=self._has_memory_op,
        )


@dataclass(frozen=True, slots=True)
class ChimePartition:
    """The chimes of one loop iteration, plus diagnostics."""

    chimes: tuple[Chime, ...]
    scalar_memory_splits: int = 0
    masked_scalar_ops: int = 0

    def __len__(self) -> int:
        return len(self.chimes)

    def vector_instructions(self) -> int:
        return sum(len(c) for c in self.chimes)

    # ------------------------------------------------------------------

    def total_cycles(
        self,
        vl: int = 128,
        timings: TimingTable | None = None,
        refresh: bool = True,
        chaining: bool = True,
        refresh_factor: float = REFRESH_FACTOR,
    ) -> float:
        """Steady-state cycles for one loop iteration's chimes.

        Applies the memory-refresh rule (§3.4): every circular run of
        :data:`REFRESH_RUN_LENGTH` or more consecutive chimes that each
        contain a memory operation is scaled by ``refresh_factor``
        (default :data:`REFRESH_FACTOR`; machine descriptions derive
        theirs via :func:`refresh_factor_for`).
        """
        if timings is None:
            timings = default_timing_table()
        if not self.chimes:
            return 0.0
        costs = [c.cycles(vl, timings, chaining) for c in self.chimes]
        if not refresh:
            return sum(costs)
        if all(c.has_memory_op for c in self.chimes):
            # The loop repeats, so the run of memory chimes is unbounded
            # across iterations: the refresh is always exposed (this is
            # how the paper reaches 2.09 CPL for LFK3's two chimes).
            return sum(costs) * refresh_factor
        scaled = list(costs)
        for start, length in self._circular_memory_runs():
            if length >= REFRESH_RUN_LENGTH:
                for offset in range(length):
                    index = (start + offset) % len(costs)
                    scaled[index] = costs[index] * refresh_factor
        return sum(scaled)

    def _circular_memory_runs(self) -> list[tuple[int, int]]:
        """Maximal circular runs of memory-containing chimes."""
        n = len(self.chimes)
        flags = [c.has_memory_op for c in self.chimes]
        if all(flags):
            return [(0, n)]
        runs: list[tuple[int, int]] = []
        index = 0
        # Start scanning just past a non-memory chime so circular runs
        # are never cut at the array boundary.
        first_gap = flags.index(False)
        position = first_gap + 1
        for _ in range(n):
            actual = position % n
            if flags[actual]:
                start = actual
                length = 0
                while flags[(start + length) % n] and length < n:
                    length += 1
                runs.append((start, length))
                position += length
            else:
                position += 1
        # Deduplicate (the scan can revisit the same run start once).
        unique: list[tuple[int, int]] = []
        for run in runs:
            if run not in unique:
                unique.append(run)
        return unique

    def cpl(
        self,
        vl: int = 128,
        timings: TimingTable | None = None,
        refresh: bool = True,
        chaining: bool = True,
        refresh_factor: float = REFRESH_FACTOR,
    ) -> float:
        """Bound in cycles per *source* loop iteration."""
        return self.total_cycles(
            vl, timings, refresh, chaining, refresh_factor
        ) / vl


def partition_chimes(
    instructions: Iterable[Instruction],
    rules: ChimeRules = DEFAULT_RULES,
) -> ChimePartition:
    """Partition one loop iteration's instructions into chimes.

    The input is the full instruction sequence of the (compiled) inner
    loop body, in program order; scalar instructions participate only
    through the masking/splitting rules.
    """
    chimes: list[Chime] = []
    builder = _ChimeBuilder(rules)
    splits = 0
    masked = 0

    def close(split: bool = False) -> None:
        nonlocal builder
        if builder.ops:
            chimes.append(builder.chime(split))
        builder = _ChimeBuilder(rules)

    for instr in instructions:
        if not instr.is_vector:
            if instr.touches_memory:  # scalar memory
                if builder.note_scalar_memory():
                    splits += 1
                    close(split=True)
            else:
                masked += 1
            continue
        op = _classify(instr)
        if builder.ops and not builder.fits(op):
            close()
        builder.add(op)
    close()
    return ChimePartition(
        chimes=tuple(chimes),
        scalar_memory_splits=splits,
        masked_scalar_ops=masked,
    )

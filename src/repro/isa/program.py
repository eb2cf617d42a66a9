"""Assembly program container.

A :class:`Program` is an ordered instruction sequence plus the two
symbol tables needed to execute it: code labels (branch targets) and a
data layout mapping symbol names to byte offsets in the simulated
memory.  Programs are the interchange format between the compiler, the
chime scheduler, the MACS model, the A/X transformers, and the machine
simulator.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..errors import AsmSyntaxError, IsaError
from .instructions import Instruction
from .operands import LabelRef, MemRef, WORD_BYTES

if TYPE_CHECKING:
    from ..schedule.chimes import ChimePartition, ChimeRules


@dataclass(frozen=True)
class DataSymbol:
    """One named region in the program's data segment."""

    name: str
    offset_bytes: int
    size_bytes: int

    def __post_init__(self):
        if self.offset_bytes < 0 or self.size_bytes < 0:
            raise IsaError(
                f"symbol {self.name}: negative offset or size"
            )
        if self.offset_bytes % WORD_BYTES:
            raise IsaError(
                f"symbol {self.name}: offset {self.offset_bytes} is not "
                f"word-aligned"
            )

    @property
    def offset_words(self) -> int:
        return self.offset_bytes // WORD_BYTES


class DataLayout:
    """The data segment: named symbols packed into one address space."""

    def __init__(self):
        self._symbols: dict[str, DataSymbol] = {}
        self._next_offset = 0

    def allocate(self, name: str, size_words: int) -> DataSymbol:
        """Append a new symbol of ``size_words`` 8-byte words."""
        if name in self._symbols:
            raise IsaError(f"duplicate data symbol {name!r}")
        if size_words <= 0:
            raise IsaError(f"symbol {name!r}: size must be positive")
        symbol = DataSymbol(name, self._next_offset, size_words * WORD_BYTES)
        self._symbols[name] = symbol
        self._next_offset += symbol.size_bytes
        return symbol

    def lookup(self, name: str) -> DataSymbol:
        try:
            return self._symbols[name]
        except KeyError:
            raise IsaError(
                f"undefined data symbol {name!r}; "
                f"defined: {sorted(self._symbols)}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._symbols

    def symbols(self) -> tuple[DataSymbol, ...]:
        return tuple(self._symbols.values())

    @property
    def total_bytes(self) -> int:
        return self._next_offset

    @property
    def total_words(self) -> int:
        return self._next_offset // WORD_BYTES

    def copy(self) -> "DataLayout":
        clone = DataLayout()
        clone._symbols = dict(self._symbols)
        clone._next_offset = self._next_offset
        return clone


class Program:
    """An executable assembly program.

    Parameters
    ----------
    instructions:
        The instruction sequence.  Labels are carried on the
        instructions themselves (``Instruction.label``).
    layout:
        Data-segment layout; defaults to an empty layout.
    name:
        Diagnostic name (e.g. the kernel it was compiled from).
    """

    def __init__(
        self,
        instructions: Iterable[Instruction],
        layout: DataLayout | None = None,
        name: str = "<anonymous>",
    ):
        self._instructions: tuple[Instruction, ...] = tuple(instructions)
        self.layout = layout if layout is not None else DataLayout()
        self.name = name
        self._labels = self._index_labels(self._instructions)
        self._check_branch_targets()
        self._branch_targets = self._index_branch_targets()
        #: per-instance cache slot for the simulator's decoded form (see
        #: :func:`repro.machine.semantics.decode_program`)
        self._decoded_cache = None
        #: per-instance cache slot for the inner loop's MACS chime
        #: partitions, keyed by body variant and chime rules (see
        #: :mod:`repro.model.macs`)
        self._macs_partitions: dict[
            tuple[str, ChimeRules], ChimePartition
        ] = {}

    @staticmethod
    def _index_labels(
        instructions: Sequence[Instruction],
    ) -> dict[str, int]:
        labels: dict[str, int] = {}
        for pc, instr in enumerate(instructions):
            if instr.label:
                if instr.label in labels:
                    raise AsmSyntaxError(
                        f"duplicate label {instr.label!r}"
                    )
                labels[instr.label] = pc
        return labels

    def _check_branch_targets(self) -> None:
        for pc, instr in enumerate(self._instructions):
            if instr.is_branch:
                target = instr.operands[0]
                assert isinstance(target, LabelRef)
                if target.name not in self._labels:
                    raise AsmSyntaxError(
                        f"pc {pc}: branch to undefined label "
                        f"{target.name!r}"
                    )

    # ------------------------------------------------------------------
    # Sequence protocol
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self._instructions)

    def __getitem__(self, index: int) -> Instruction:
        return self._instructions[index]

    @property
    def instructions(self) -> tuple[Instruction, ...]:
        return self._instructions

    def _index_branch_targets(self) -> tuple[int, ...]:
        """Per-pc resolved branch target (-1 for non-branches).

        Precomputed once so the simulator's branch path is an array
        index instead of a label-dictionary lookup per taken branch.
        """
        targets = []
        for instr in self._instructions:
            if instr.is_branch:
                target = instr.operands[0]
                assert isinstance(target, LabelRef)
                targets.append(self._labels[target.name])
            else:
                targets.append(-1)
        return tuple(targets)

    @property
    def labels(self) -> dict[str, int]:
        return dict(self._labels)

    @property
    def label_table(self) -> dict[str, int]:
        """The internal label->pc table (read-only by convention).

        Unlike :attr:`labels` this does not copy; hot paths (the
        simulator) use it directly.
        """
        return self._labels

    @property
    def branch_targets(self) -> tuple[int, ...]:
        """Resolved branch-target pc per instruction (-1 = not a branch)."""
        return self._branch_targets

    def label_pc(self, label: str) -> int:
        try:
            return self._labels[label]
        except KeyError:
            raise IsaError(
                f"undefined label {label!r} in program {self.name!r}"
            ) from None

    # ------------------------------------------------------------------
    # Analysis helpers
    # ------------------------------------------------------------------

    def vector_instructions(self) -> tuple[Instruction, ...]:
        return tuple(i for i in self._instructions if i.is_vector)

    def loop_bodies(self) -> list[tuple[int, int]]:
        """Find backward-branch loops as (start_pc, end_pc) inclusive.

        A loop is a branch at ``end_pc`` targeting a label at
        ``start_pc <= end_pc``.  Innermost loops appear first.
        """
        loops: list[tuple[int, int]] = []
        for pc, instr in enumerate(self._instructions):
            if instr.is_branch:
                target = instr.operands[0]
                assert isinstance(target, LabelRef)
                tpc = self._labels[target.name]
                if tpc <= pc:
                    loops.append((tpc, pc))
        loops.sort(key=lambda span: span[1] - span[0])
        return loops

    def innermost_loop(self) -> tuple[int, int]:
        """The smallest backward-branch loop (the vectorized inner loop)."""
        loops = self.loop_bodies()
        if not loops:
            raise IsaError(f"program {self.name!r} contains no loop")
        return loops[0]

    def loop_slice(self, span: tuple[int, int]) -> tuple[Instruction, ...]:
        start, end = span
        return self._instructions[start : end + 1]

    def memory_references(self) -> list[MemRef]:
        refs: list[MemRef] = []
        for instr in self._instructions:
            mem = instr.memory_operand
            if mem is not None:
                refs.append(mem)
        return refs

    def replaced(
        self, instructions: Iterable[Instruction], name: str | None = None
    ) -> "Program":
        """New program with the same layout but different instructions."""
        return Program(
            instructions,
            layout=self.layout.copy(),
            name=name if name is not None else self.name,
        )

    def __repr__(self) -> str:
        return (
            f"Program(name={self.name!r}, instructions={len(self)}, "
            f"data_words={self.layout.total_words})"
        )

"""Fluent builder for assembly programs.

Used by the compiler back end, the calibration-loop generator, and the
tests to construct programs without string round-trips::

    b = AsmBuilder("lfk1")
    zx = b.data("zx", 1024)
    b.mov(Immediate(1001), sreg(0))
    with b.strip_loop(sreg(0), areg(5)) as loop:
        b.vload(zx, areg(5), 80, vreg(0))
        ...

The builder only assembles what you ask for; structural validity is
checked by the :class:`~repro.isa.instructions.Instruction` and
:class:`~repro.isa.program.Program` constructors on build.
"""

from __future__ import annotations

import contextlib
from collections.abc import Iterator

from ..errors import IsaError
from .instructions import Instruction
from .operands import Immediate, LabelRef, MemRef, Operand, WORD_BYTES
from .program import DataLayout, DataSymbol, Program
from .registers import Register, VL


class AsmBuilder:
    """Accumulates instructions and data symbols, then builds a Program."""

    def __init__(self, name: str = "<built>"):
        self.name = name
        self._layout = DataLayout()
        self._instructions: list[Instruction] = []
        self._pending_label: str | None = None
        self._label_counter = 0

    # ------------------------------------------------------------------
    # Data and labels
    # ------------------------------------------------------------------

    def data(self, name: str, size_words: int) -> DataSymbol:
        """Allocate a named data region of 8-byte words."""
        return self._layout.allocate(name, size_words)

    def fresh_label(self, prefix: str = "L") -> str:
        self._label_counter += 1
        return f"{prefix}{self._label_counter}"

    def label(self, name: str) -> str:
        """Attach ``name`` to the next emitted instruction."""
        if self._pending_label is not None:
            raise IsaError(
                f"label {self._pending_label!r} already pending"
            )
        self._pending_label = name
        return name

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------

    def emit(self, instr: Instruction) -> Instruction:
        if self._pending_label is not None:
            instr = instr.with_label(self._pending_label)
            self._pending_label = None
        self._instructions.append(instr)
        return instr

    def op(
        self,
        mnemonic: str,
        *operands: Operand,
        suffix: str = "",
        comment: str | None = None,
    ) -> Instruction:
        return self.emit(
            Instruction(
                mnemonic=mnemonic,
                operands=tuple(operands),
                suffix=suffix,
                comment=comment,
            )
        )

    # -- common scalar ops ---------------------------------------------

    def mov(self, src: Operand, dst: Register, comment: str | None = None):
        return self.op("mov", src, dst, suffix="w", comment=comment)

    def set_vl(self, src: Operand, comment: str | None = None):
        """``mov <src>,VL`` — set the vector length (clamped to 128)."""
        return self.op("mov", src, VL, suffix="w", comment=comment)

    def add_imm(self, value: int, dst: Register, comment: str | None = None):
        """Two-operand accumulate: ``add #value,dst`` (dst += value)."""
        return self.op("add", Immediate(value), dst, suffix="w",
                       comment=comment)

    def sub_imm(self, value: int, dst: Register, comment: str | None = None):
        return self.op("sub", Immediate(value), dst, suffix="w",
                       comment=comment)

    def compare_lt(self, lhs: Operand, rhs: Operand,
                   comment: str | None = None):
        """``lt lhs,rhs`` — set test flag to (lhs < rhs)."""
        return self.op("lt", lhs, rhs, suffix="w", comment=comment)

    def branch_true(self, label: str, comment: str | None = None):
        return self.op("jbrs", LabelRef(label), suffix="t", comment=comment)

    def branch_false(self, label: str, comment: str | None = None):
        return self.op("jbrs", LabelRef(label), suffix="f", comment=comment)

    def jump(self, label: str, comment: str | None = None):
        return self.op("jbr", LabelRef(label), comment=comment)

    # -- memory operands ------------------------------------------------

    def mem(
        self,
        symbol: DataSymbol | str | None,
        base: Register,
        displacement_words: int = 0,
        stride_words: int = 1,
    ) -> MemRef:
        """Build a MemRef with a displacement given in *words*."""
        name = symbol.name if isinstance(symbol, DataSymbol) else symbol
        return MemRef(
            base=base,
            displacement=displacement_words * WORD_BYTES,
            symbol=name,
            stride_words=stride_words,
        )

    # -- vector ops -------------------------------------------------------

    def vload(self, mem: MemRef, dst: Register,
              comment: str | None = None):
        return self.op("ld", mem, dst, suffix="l", comment=comment)

    def vstore(self, src: Register, mem: MemRef,
               comment: str | None = None):
        return self.op("st", src, mem, suffix="l", comment=comment)

    def sload(self, mem: MemRef, dst: Register,
              comment: str | None = None):
        """Scalar load (destination a/s register)."""
        return self.op("ld", mem, dst, suffix="l", comment=comment)

    def sstore(self, src: Register, mem: MemRef,
               comment: str | None = None):
        return self.op("st", src, mem, suffix="l", comment=comment)

    def vadd(self, lhs: Operand, rhs: Operand, dst: Register,
             comment: str | None = None):
        return self.op("add", lhs, rhs, dst, suffix="d", comment=comment)

    def vsub(self, lhs: Operand, rhs: Operand, dst: Register,
             comment: str | None = None):
        return self.op("sub", lhs, rhs, dst, suffix="d", comment=comment)

    def vmul(self, lhs: Operand, rhs: Operand, dst: Register,
             comment: str | None = None):
        return self.op("mul", lhs, rhs, dst, suffix="d", comment=comment)

    def vdiv(self, lhs: Operand, rhs: Operand, dst: Register,
             comment: str | None = None):
        return self.op("div", lhs, rhs, dst, suffix="d", comment=comment)

    def vneg(self, src: Register, dst: Register,
             comment: str | None = None):
        return self.op("neg", src, dst, suffix="d", comment=comment)

    def vsum(self, src: Register, dst: Register,
             comment: str | None = None):
        """Vector reduction ``sum.d v,s`` (vector summed into scalar)."""
        return self.op("sum", src, dst, suffix="d", comment=comment)

    # ------------------------------------------------------------------
    # Structured loops
    # ------------------------------------------------------------------

    @contextlib.contextmanager
    def strip_loop(
        self,
        count: Register,
        offset: Register,
        *,
        step_words: int = 128,
        comment: str | None = None,
    ) -> Iterator[str]:
        """Strip-mined loop skeleton (the paper's LFK1 shape).

        ``count`` holds the remaining source-iteration count on entry;
        ``offset`` is the running byte offset register.  At the top of
        each trip ``VL := min(count, 128)``; at the bottom the offset
        advances by ``step_words * 8`` bytes, the count drops by 128,
        and the loop repeats while ``count > 0``.
        """
        top = self.fresh_label()
        self.label(top)
        self.set_vl(count, comment=comment)
        yield top
        self.add_imm(step_words * WORD_BYTES, offset)
        self.sub_imm(128, count)
        self.compare_lt(Immediate(0), count)
        self.branch_true(top)

    # ------------------------------------------------------------------

    def build(self) -> Program:
        if self._pending_label is not None:
            raise IsaError(
                f"pending label {self._pending_label!r} never attached"
            )
        return Program(
            self._instructions, layout=self._layout, name=self.name
        )

    def __len__(self) -> int:
        return len(self._instructions)

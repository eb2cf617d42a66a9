"""Instruction model and opcode registry for the Convex-style ISA.

The instruction set is the subset of the Convex C-series assembly
language exercised by the paper's case study:

* vector memory: ``ld`` / ``st`` (load/store function pipe),
* vector arithmetic: ``add`` / ``sub`` / ``neg`` / ``sum`` (add pipe)
  and ``mul`` / ``div`` (multiply pipe),
* scalar ALU and address arithmetic: ``add`` / ``sub`` / ``mul`` /
  ``mov`` / ``lt`` / ``le`` on scalar or address registers,
* scalar memory: ``ld`` / ``st`` with scalar destinations,
* control: ``jbr`` (unconditional) and ``jbrs`` (branch on test flag).

Following the paper (§3.5): *"A vector instruction is taken to be any
instruction that accesses at least one of the eight vector registers."*
The same mnemonic (e.g. ``add``) therefore yields a vector or scalar
instruction depending on its operands; classification is computed from
the operands, not the mnemonic.

Operand order follows Convex convention: sources first, destination
last.  ``st`` is the exception — its "destination" is the memory
operand, written last (``st.l v0,24024(a5)``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from ..errors import OperandError, UnknownOpcodeError
from .operands import LabelRef, MemRef, Operand
from .registers import Register


class Pipe(enum.Enum):
    """The three pipelined vector function units of the C-240 VP (§2)."""

    LOAD_STORE = "load/store"
    ADD = "add"
    MULTIPLY = "multiply"


class OpClass(enum.Enum):
    """Broad behavioural class of an opcode."""

    MEMORY = "memory"  # ld / st
    ADD_GROUP = "add"  # add, sub, neg, logical ops, conversions
    MUL_GROUP = "mul"  # mul, div, sqrt
    REDUCTION = "reduction"  # sum (vector reduce to scalar)
    MOVE = "move"  # register-to-register moves
    COMPARE = "compare"  # sets the test flag
    BRANCH = "branch"  # control transfer


@dataclass(frozen=True)
class OpcodeSpec:
    """Static description of one mnemonic."""

    mnemonic: str
    opclass: OpClass
    #: Minimum and maximum operand counts (inclusive).
    min_operands: int
    max_operands: int
    #: True when the last operand is written (registers) or is the
    #: stored-to memory location (``st``).
    has_destination: bool = True
    #: True for two-operand accumulate forms where the destination is
    #: also read (scalar ``add #1024,a5`` meaning ``a5 += 1024``).
    destination_also_read: bool = False
    #: Timing-table key for the vector form of this opcode, or None when
    #: the opcode has no vector form.
    timing_key: str | None = None

    def vector_pipe(self) -> Pipe | None:
        """Function pipe used by the vector form of this opcode."""
        if self.opclass is OpClass.MEMORY:
            return Pipe.LOAD_STORE
        if self.opclass in (OpClass.ADD_GROUP, OpClass.REDUCTION):
            return Pipe.ADD
        if self.opclass is OpClass.MUL_GROUP:
            return Pipe.MULTIPLY
        return None


_SPECS: dict[str, OpcodeSpec] = {}


def _register(spec: OpcodeSpec) -> OpcodeSpec:
    _SPECS[spec.mnemonic] = spec
    return spec


LD = _register(OpcodeSpec("ld", OpClass.MEMORY, 2, 2, timing_key="load"))
ST = _register(OpcodeSpec("st", OpClass.MEMORY, 2, 2, timing_key="store"))
ADD = _register(
    OpcodeSpec("add", OpClass.ADD_GROUP, 2, 3, destination_also_read=True,
               timing_key="add")
)
SUB = _register(
    OpcodeSpec("sub", OpClass.ADD_GROUP, 2, 3, destination_also_read=True,
               timing_key="sub")
)
NEG = _register(OpcodeSpec("neg", OpClass.ADD_GROUP, 2, 2, timing_key="neg"))
MUL = _register(
    OpcodeSpec("mul", OpClass.MUL_GROUP, 2, 3, destination_also_read=True,
               timing_key="mul")
)
DIV = _register(
    OpcodeSpec("div", OpClass.MUL_GROUP, 2, 3, destination_also_read=True,
               timing_key="div")
)
SUM = _register(OpcodeSpec("sum", OpClass.REDUCTION, 2, 2, timing_key="sum"))
MOV = _register(OpcodeSpec("mov", OpClass.MOVE, 2, 2))
LT = _register(OpcodeSpec("lt", OpClass.COMPARE, 2, 2, has_destination=False))
LE = _register(OpcodeSpec("le", OpClass.COMPARE, 2, 2, has_destination=False))
EQ = _register(OpcodeSpec("eq", OpClass.COMPARE, 2, 2, has_destination=False))
JBR = _register(OpcodeSpec("jbr", OpClass.BRANCH, 1, 1, has_destination=False))
JBRS = _register(
    OpcodeSpec("jbrs", OpClass.BRANCH, 1, 1, has_destination=False)
)


def opcode_spec(mnemonic: str) -> OpcodeSpec:
    """Look up the :class:`OpcodeSpec` for a mnemonic."""
    try:
        return _SPECS[mnemonic]
    except KeyError:
        raise UnknownOpcodeError(
            f"unknown opcode {mnemonic!r}; known: {sorted(_SPECS)}"
        ) from None


def known_mnemonics() -> tuple[str, ...]:
    """All registered mnemonics, sorted."""
    return tuple(sorted(_SPECS))


#: Valid operand-size / condition suffixes.
VALID_SUFFIXES = frozenset({"b", "w", "l", "s", "d", "t", "f", ""})


@dataclass(frozen=True)
class Instruction:
    """One assembly instruction, optionally labelled and commented.

    Classification properties (``is_vector``, ``pipe`` …) are derived
    from the operands per the paper's rule: an instruction is *vector*
    iff it touches a vector register.
    """

    mnemonic: str
    operands: tuple[Operand, ...] = ()
    suffix: str = ""
    label: str | None = None
    comment: str | None = None

    def __post_init__(self):
        spec = opcode_spec(self.mnemonic)  # raises UnknownOpcodeError
        if self.suffix not in VALID_SUFFIXES:
            raise OperandError(
                f"invalid suffix {self.suffix!r} on {self.mnemonic}"
            )
        n = len(self.operands)
        if not spec.min_operands <= n <= spec.max_operands:
            raise OperandError(
                f"{self.mnemonic} takes {spec.min_operands}"
                f"..{spec.max_operands} operands, got {n}"
            )
        if spec.opclass is OpClass.BRANCH:
            if not isinstance(self.operands[0], LabelRef):
                raise OperandError(
                    f"{self.mnemonic} target must be a label, "
                    f"got {self.operands[0]!r}"
                )
        if spec.opclass is OpClass.MEMORY:
            n_mem = sum(isinstance(op, MemRef) for op in self.operands)
            if n_mem != 1:
                raise OperandError(
                    f"{self.mnemonic} needs exactly one memory operand, "
                    f"got {n_mem}"
                )
            if self.mnemonic == "ld" and not isinstance(
                self.operands[0], MemRef
            ):
                raise OperandError("ld source must be the memory operand")
            if self.mnemonic == "st" and not isinstance(
                self.operands[-1], MemRef
            ):
                raise OperandError("st destination must be the memory operand")

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    @property
    def spec(self) -> OpcodeSpec:
        return opcode_spec(self.mnemonic)

    @property
    def name(self) -> str:
        """Full printed mnemonic including suffix, e.g. ``add.d``."""
        return f"{self.mnemonic}.{self.suffix}" if self.suffix else self.mnemonic

    @property
    def destination(self) -> Operand | None:
        """The written operand (register or, for ``st``, the MemRef)."""
        if not self.spec.has_destination:
            return None
        return self.operands[-1]

    @property
    def sources(self) -> tuple[Operand, ...]:
        """All read operands.

        Includes the destination for two-operand accumulate forms
        (``add #1024,a5``): with only two operands and
        ``destination_also_read``, the destination register is an input.
        """
        if not self.spec.has_destination:
            return self.operands
        srcs = self.operands[:-1]
        two_operand_accumulate = (
            self.spec.destination_also_read
            and len(self.operands) == 2
            and isinstance(self.operands[-1], Register)
        )
        if two_operand_accumulate:
            srcs = srcs + (self.operands[-1],)
        return srcs

    @property
    def memory_operand(self) -> MemRef | None:
        for op in self.operands:
            if isinstance(op, MemRef):
                return op
        return None

    # ------------------------------------------------------------------
    # Register sets
    # ------------------------------------------------------------------

    def _operand_registers(self, operand: Operand) -> tuple[Register, ...]:
        if isinstance(operand, Register):
            return (operand,)
        if isinstance(operand, MemRef):
            return (operand.base,)
        return ()

    @property
    def reads(self) -> frozenset[Register]:
        """Registers read by this instruction (base regs of MemRefs too)."""
        regs: set[Register] = set()
        for op in self.sources:
            regs.update(self._operand_registers(op))
        # A store's memory operand base register is read even though the
        # MemRef is the "destination".
        dest = self.destination
        if isinstance(dest, MemRef):
            regs.add(dest.base)
        return frozenset(regs)

    @property
    def writes(self) -> frozenset[Register]:
        """Registers written by this instruction."""
        dest = self.destination
        if isinstance(dest, Register):
            return frozenset({dest})
        return frozenset()

    @property
    def vector_reads(self) -> frozenset[Register]:
        return frozenset(r for r in self.reads if r.is_vector)

    @property
    def vector_writes(self) -> frozenset[Register]:
        return frozenset(r for r in self.writes if r.is_vector)

    # ------------------------------------------------------------------
    # Classification (paper §3.5 rule)
    # ------------------------------------------------------------------

    @property
    def is_vector(self) -> bool:
        """True iff the instruction accesses a vector register."""
        regs: set[Register] = set()
        for op in self.operands:
            regs.update(self._operand_registers(op))
        return any(r.is_vector for r in regs)

    @property
    def touches_memory(self) -> bool:
        return self.memory_operand is not None

    @property
    def is_vector_memory(self) -> bool:
        """Vector load or store (uses the memory port for VL cycles)."""
        return self.is_vector and self.touches_memory

    @property
    def is_vector_load(self) -> bool:
        return self.is_vector_memory and self.mnemonic == "ld"

    @property
    def is_vector_store(self) -> bool:
        return self.is_vector_memory and self.mnemonic == "st"

    @property
    def is_vector_fp(self) -> bool:
        """Vector floating-point arithmetic (add/sub/mul/div/neg/sum).

        This is the class deleted to form the A-process (§3.6).
        """
        return self.is_vector and self.spec.opclass in (
            OpClass.ADD_GROUP,
            OpClass.MUL_GROUP,
            OpClass.REDUCTION,
        )

    @property
    def is_reduction(self) -> bool:
        return self.spec.opclass is OpClass.REDUCTION

    @property
    def is_scalar_memory(self) -> bool:
        """Scalar load/store — competes with the VP for the memory port
        and terminates chimes (§3.3)."""
        return self.touches_memory and not self.is_vector

    @property
    def is_branch(self) -> bool:
        return self.spec.opclass is OpClass.BRANCH

    @property
    def is_compare(self) -> bool:
        return self.spec.opclass is OpClass.COMPARE

    @property
    def pipe(self) -> Pipe | None:
        """Function pipe used by the *vector* form; None for scalars."""
        if not self.is_vector:
            return None
        return self.spec.vector_pipe()

    @property
    def timing_key(self) -> str | None:
        """Key into the Table 1 timing database for vector instructions."""
        if not self.is_vector:
            return None
        return self.spec.timing_key

    @property
    def flop_count(self) -> int:
        """Floating-point operations per element (1 for fp arithmetic)."""
        return 1 if self.is_vector_fp else 0

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------

    def with_label(self, label: str) -> "Instruction":
        return replace(self, label=label)

    def with_comment(self, comment: str) -> "Instruction":
        return replace(self, comment=comment)

    def __str__(self) -> str:
        ops = ",".join(str(op) for op in self.operands)
        body = f"{self.name} {ops}".rstrip()
        if self.label:
            body = f"{self.label}: {body}"
        if self.comment:
            body = f"{body} ; {self.comment}"
        return body

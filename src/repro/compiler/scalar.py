"""Scalar code generation: the ASU side of the compiler.

Everything outside the vectorized inner loops — outer DO loops, the
LFK2 halving control, loop-bound arithmetic, stream address setup, and
the scalar fallback path for non-vectorizable loops — is compiled here.

Scalar variables are memory-resident in the ``SCALARS`` region (one
8-byte word each); expressions evaluate through small fixed pools of
scratch registers with a Sethi–Ullman-style discipline (right operands
that are immediates or plain loads avoid consuming scratch).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import CompileError
from ..isa.builder import AsmBuilder
from ..isa.operands import Immediate, MemRef
from ..isa.registers import Register, areg, sreg
from ..lang.analysis import LinearForm, constant_int
from ..lang.ast import (
    ArrayRef,
    BinOp,
    Compare,
    Const,
    Expr,
    UnaryOp,
    VarRef,
    walk_exprs,
)
from ..lang.semantics import SymbolTable

#: Data symbol holding all memory-resident scalars.
SCALARS_SYMBOL = "SCALARS"
#: Data symbol holding floating-point literal constants.
LITERALS_SYMBOL = "LITS"


@dataclass
class ScalarEnvironment:
    """Shared scalar-compilation state for one kernel."""

    builder: AsmBuilder
    table: SymbolTable
    a_scratch: tuple[int, ...]
    s_scratch: tuple[int, ...]
    slots: dict[str, int] = field(default_factory=dict)
    literal_slots: dict[float, int] = field(default_factory=dict)

    def slot_of(self, name: str) -> int:
        slot = self.slots.get(name)
        if slot is None:
            slot = len(self.slots)
            self.slots[name] = slot
        return slot

    def slot_mem(self, name: str) -> MemRef:
        return self.builder.mem(
            SCALARS_SYMBOL, areg(0), displacement_words=self.slot_of(name)
        )

    def literal_mem(self, value: float) -> MemRef:
        slot = self.literal_slots.get(value)
        if slot is None:
            slot = len(self.literal_slots)
            self.literal_slots[value] = slot
        return self.builder.mem(
            LITERALS_SYMBOL, areg(0), displacement_words=slot
        )

    def literal_values(self) -> list[float]:
        ordered = sorted(self.literal_slots.items(), key=lambda kv: kv[1])
        return [value for value, _ in ordered]


def expression_is_real(expr: Expr, table: SymbolTable) -> bool:
    """Fortran result-type rule: real if any operand is real."""
    for node in walk_exprs(expr):
        if isinstance(node, Const) and not node.is_integer:
            return True
        if isinstance(node, VarRef) and not table.is_integer(node.name):
            return True
        if isinstance(node, ArrayRef):
            return True  # all arrays in the kernels hold reals
    return False


def _register_need(expr: Expr) -> int:
    """Sethi–Ullman register requirement of an expression."""
    if isinstance(expr, BinOp):
        if isinstance(expr.right, Const):
            return _register_need(expr.left)
        left = _register_need(expr.left)
        right = _register_need(expr.right)
        return max(left, right) if left != right else left + 1
    if isinstance(expr, UnaryOp):
        return _register_need(expr.operand)
    return 1


class ScalarCompiler:
    """Emits scalar instruction sequences into the environment's builder.

    Binary expressions evaluate their needier operand first
    (Sethi–Ullman), so a pool of ``k`` scratch registers handles any
    expression of register need ``k + 1``.
    """

    def __init__(self, env: ScalarEnvironment):
        self.env = env
        self.builder = env.builder
        self.table = env.table

    # ------------------------------------------------------------------
    # Integer expression evaluation (address registers)
    # ------------------------------------------------------------------

    def eval_int(
        self, expr: Expr, dest: Register, scratch: tuple[int, ...] | None = None
    ) -> None:
        """Compute an integer expression into address register ``dest``."""
        if scratch is None:
            scratch = self.env.a_scratch
        b = self.builder
        if isinstance(expr, Const):
            b.mov(Immediate(int(expr.value)), dest)
            return
        if isinstance(expr, VarRef):
            b.sload(self.env.slot_mem(expr.name), dest,
                    comment=expr.name)
            return
        if isinstance(expr, UnaryOp) and expr.op == "-":
            self.eval_int(expr.operand, dest, scratch)
            b.op("neg", dest, dest, suffix="w")
            return
        if isinstance(expr, BinOp):
            mnemonic = {"+": "add", "-": "sub", "*": "mul", "/": "div"}[
                expr.op
            ]
            right = expr.right
            if isinstance(right, Const):
                self.eval_int(expr.left, dest, scratch)
                b.op(mnemonic, Immediate(int(right.value)), dest, suffix="w")
                return
            if not scratch:
                raise CompileError(
                    f"integer expression too deep for scratch pool: {expr}"
                )
            temp = areg(scratch[0])
            if _register_need(right) > _register_need(expr.left):
                # Evaluate the needier side into dest first; the
                # three-operand form keeps operand order for - and /.
                self.eval_int(right, dest, scratch)
                self.eval_int(expr.left, temp, scratch[1:])
                b.op(mnemonic, temp, dest, dest, suffix="w")
            else:
                self.eval_int(expr.left, dest, scratch)
                self.eval_int(right, temp, scratch[1:])
                b.op(mnemonic, temp, dest, suffix="w")
            return
        raise CompileError(f"cannot evaluate integer expression {expr}")

    # ------------------------------------------------------------------
    # Array element addressing
    # ------------------------------------------------------------------

    def _offset_expression(self, ref: ArrayRef) -> tuple[Expr | None, int]:
        """Word-offset of an element: (variable part, constant part)."""
        info = self.table.array(ref.name)
        constant = -sum(info.dim_strides())
        variable: Expr | None = None
        for index_expr, stride in zip(ref.indices, info.dim_strides()):
            term: Expr = index_expr
            folded = constant_int(index_expr)
            if folded is not None:
                constant += folded * stride
                continue
            if stride != 1:
                term = BinOp("*", term, Const(float(stride), is_integer=True))
            variable = term if variable is None else BinOp("+", variable, term)
        return variable, constant

    def element_mem(
        self, ref: ArrayRef, address_reg: Register
    ) -> MemRef:
        """Emit address computation for one element; return its MemRef.

        Uses ``address_reg`` for the variable part (left zeroed when the
        offset is fully constant, in which case ``a0`` is used instead).
        """
        variable, constant = self._offset_expression(ref)
        if variable is None:
            return self.builder.mem(
                ref.name, areg(0), displacement_words=constant
            )
        scratch = tuple(
            r for r in self.env.a_scratch if r != address_reg.index
        )
        self.eval_int(variable, address_reg, scratch=scratch)
        self.builder.op("mul", Immediate(8), address_reg, suffix="w")
        return self.builder.mem(
            ref.name, address_reg, displacement_words=constant
        )

    def eval_linear_form_bytes(
        self, form: LinearForm, dest: Register
    ) -> None:
        """Byte value of a linear form's *symbolic* part into ``dest``.

        The constant part is carried in instruction displacements; this
        computes ``8 * sum(coeff * sym)`` for stream-address setup.
        """
        if not form.symbolic:
            self.builder.mov(Immediate(0), dest)
            return
        expr: Expr | None = None
        for coeff, sym in form.symbolic:
            term: Expr = sym
            if coeff != 1:
                term = BinOp("*", Const(float(coeff), is_integer=True), term)
            expr = term if expr is None else BinOp("+", expr, term)
        assert expr is not None
        self.eval_int(expr, dest)
        self.builder.op("mul", Immediate(8), dest, suffix="w")

    # ------------------------------------------------------------------
    # Floating-point expression evaluation (s registers)
    # ------------------------------------------------------------------

    def eval_fp(
        self, expr: Expr, dest: Register, scratch: tuple[int, ...] | None = None
    ) -> None:
        """Compute a real-valued expression into scalar register ``dest``."""
        if scratch is None:
            scratch = self.env.s_scratch
        b = self.builder
        if isinstance(expr, Const):
            if float(expr.value).is_integer():
                b.mov(Immediate(int(expr.value)), dest)
            else:
                b.sload(self.env.literal_mem(float(expr.value)), dest)
            return
        if isinstance(expr, VarRef):
            b.sload(self.env.slot_mem(expr.name), dest, comment=expr.name)
            return
        if isinstance(expr, ArrayRef):
            mem = self.element_mem(expr, areg(self.env.a_scratch[-1]))
            b.sload(mem, dest, comment=str(expr))
            return
        if isinstance(expr, UnaryOp) and expr.op == "-":
            self.eval_fp(expr.operand, dest, scratch)
            b.op("neg", dest, dest, suffix="d")
            return
        if isinstance(expr, BinOp):
            mnemonic = {"+": "add", "-": "sub", "*": "mul", "/": "div"}[
                expr.op
            ]
            right = expr.right
            if isinstance(right, Const) and float(right.value).is_integer():
                self.eval_fp(expr.left, dest, scratch)
                b.op(mnemonic, Immediate(int(right.value)), dest, suffix="d")
                return
            if not scratch:
                raise CompileError(
                    f"real expression too deep for scratch pool: {expr}"
                )
            temp = sreg(scratch[0])
            if _register_need(right) > _register_need(expr.left):
                self.eval_fp(right, dest, scratch)
                self.eval_fp(expr.left, temp, scratch[1:])
                b.op(mnemonic, temp, dest, dest, suffix="d")
            else:
                self.eval_fp(expr.left, dest, scratch)
                self.eval_fp(right, temp, scratch[1:])
                b.op(mnemonic, temp, dest, suffix="d")
            return
        raise CompileError(f"cannot evaluate real expression {expr}")

    # ------------------------------------------------------------------
    # Control flow
    # ------------------------------------------------------------------

    def emit_compare_and_branch(
        self, condition: Compare, target_label: str, branch_if_true: bool
    ) -> None:
        """Evaluate a relation, branch to ``target_label`` accordingly."""
        is_real = expression_is_real(
            condition.left, self.table
        ) or expression_is_real(condition.right, self.table)
        if is_real:
            left = sreg(self.env.s_scratch[0])
            right = sreg(self.env.s_scratch[1])
            self.eval_fp(condition.left, left,
                         scratch=self.env.s_scratch[2:])
            self.eval_fp(condition.right, right,
                         scratch=self.env.s_scratch[2:])
        else:
            left = areg(self.env.a_scratch[0])
            right = areg(self.env.a_scratch[1])
            self.eval_int(condition.left, left,
                          scratch=self.env.a_scratch[2:])
            self.eval_int(condition.right, right,
                          scratch=self.env.a_scratch[2:])
        # Map every relation onto lt / le / eq plus a branch sense.
        op = condition.op
        b = self.builder
        if op == ">":
            b.op("lt", right, left, suffix="w")
            flag_means_true = True
        elif op == "<":
            b.op("lt", left, right, suffix="w")
            flag_means_true = True
        elif op == ">=":
            b.op("lt", left, right, suffix="w")
            flag_means_true = False
        elif op == "<=":
            b.op("le", left, right, suffix="w")
            flag_means_true = True
        elif op == "==":
            b.op("eq", left, right, suffix="w")
            flag_means_true = True
        elif op == "/=":
            b.op("eq", left, right, suffix="w")
            flag_means_true = False
        else:
            raise CompileError(f"unknown relational operator {op!r}")
        if branch_if_true == flag_means_true:
            b.branch_true(target_label)
        else:
            b.branch_false(target_label)

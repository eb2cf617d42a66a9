"""The vectorizer: loop AST + analysis → :class:`VectorLoopIR`.

Lowers the body of a vectorizable inner loop into straight-line vector
operations, performing:

* **value numbering / CSE** on identical array loads (``fc`` loads
  ``U1(kx,ky,nl1)`` once per iteration even when the source mentions it
  twice);
* **store forwarding** — a load matching an earlier store in the same
  iteration reuses the stored register (LFK8's ``DU1(ky)``);
* **iteration-local scalars** — real scalars assigned inside the loop
  (LFK10's ``AR``/``BR``/``CR``) become vector temporaries;
* **reduction planning** — partial-sums or in-loop direct ``sum.d``;
* optional **shifted-reuse** (``reuse_shifted_loads``) — the
  ideal-compiler ablation that reuses a single stream for shifted
  references, collapsing the paper's MA→MAC load gap (the reused values
  are only performance-equivalent, not numerically exact).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import VectorizationError
from ..lang.analysis import AccessFunction, LoopAnalysis, Reduction
from ..lang.ast import (
    ArrayRef,
    Assign,
    BinOp,
    Const,
    Continue,
    Expr,
    UnaryOp,
    VarRef,
    walk_exprs,
)
from ..lang.semantics import SymbolTable
from .ir import (
    BINOP_KINDS,
    Operand,
    ReductionPlan,
    ScalarKind,
    ScalarOperand,
    Stream,
    VTemp,
    VectorLoopIR,
    VectorOp,
    VectorOpKind,
)
from .options import CompilerOptions, ReductionStyle


def _literal_name(value: float) -> str:
    return f"lit_{repr(float(value)).replace('.', 'p').replace('-', 'm')}"


@dataclass(frozen=True)
class _StreamKey:
    array: str
    stride: int
    signature: tuple
    const: int

    @classmethod
    def of(cls, access: AccessFunction) -> "_StreamKey":
        symbolic = tuple(
            sorted((c, str(e)) for c, e in access.base.symbolic)
        )
        return cls(access.array, access.stride_words, symbolic,
                   access.base.const)

    def residue_class(self) -> "_StreamKey":
        """Key identifying the reuse stream for shifted references."""
        if self.stride == 0:
            return self
        return _StreamKey(
            self.array, self.stride, self.signature,
            self.const % abs(self.stride),
        )


class Vectorizer:
    """Builds the vector IR for one analyzed loop."""

    def __init__(
        self,
        analysis: LoopAnalysis,
        table: SymbolTable,
        options: CompilerOptions,
        nested: bool,
    ):
        if not analysis.vectorizable:
            raise VectorizationError(
                f"loop over {analysis.loop.var!r} is not vectorizable: "
                f"{analysis.reason}"
            )
        self.analysis = analysis
        self.table = table
        self.options = options
        self.nested = nested
        self._ir = VectorLoopIR()
        self._temp_counter = 0
        self._scalar_pool: dict[str, ScalarOperand] = {}
        self._load_values: dict[_StreamKey, VTemp] = {}
        self._local_values: dict[str, Operand] = {}
        self._assigned_locals = self._find_assigned_locals()
        self._accesses = self._index_accesses()

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    def _find_assigned_locals(self) -> set[str]:
        names: set[str] = set()
        reduction = self.analysis.reduction
        for index, stmt in enumerate(self.analysis.loop.body):
            if not isinstance(stmt, Assign):
                continue
            if reduction is not None and reduction.statement_index == index:
                continue
            if isinstance(stmt.target, VarRef) and not self.table.is_integer(
                stmt.target.name
            ):
                names.add(stmt.target.name)
        return names

    def _index_accesses(self) -> dict[tuple[int, ArrayRef], AccessFunction]:
        accesses: dict[tuple[int, ArrayRef], AccessFunction] = {}
        for stream in self.analysis.streams:
            accesses[(stream.statement_index, stream.ref)] = stream.access
        return accesses

    def _access_for(self, index: int, ref: ArrayRef) -> AccessFunction:
        try:
            return self._accesses[(index, ref)]
        except KeyError:
            raise VectorizationError(
                f"no access function for {ref} in statement {index}"
            ) from None

    # ------------------------------------------------------------------
    # Temp and scalar management
    # ------------------------------------------------------------------

    def _new_temp(self) -> VTemp:
        temp = VTemp(self._temp_counter)
        self._temp_counter += 1
        return temp

    def _intern_scalar(self, operand: ScalarOperand) -> ScalarOperand:
        existing = self._scalar_pool.get(operand.name)
        if existing is None:
            self._scalar_pool[operand.name] = operand
            self._ir.scalars.append(operand)
            return operand
        return existing

    def _scalar_for_expr(self, expr: Expr) -> ScalarOperand:
        """Loop-invariant expression → pooled scalar operand."""
        if isinstance(expr, Const):
            return self._intern_scalar(
                ScalarOperand(
                    ScalarKind.LITERAL, _literal_name(expr.value),
                    value=float(expr.value),
                )
            )
        if isinstance(expr, VarRef):
            return self._intern_scalar(
                ScalarOperand(ScalarKind.VARIABLE, expr.name)
            )
        name = f"hoist_{len(self._scalar_pool)}"
        return self._intern_scalar(
            ScalarOperand(ScalarKind.HOISTED, name, expr=expr)
        )

    # ------------------------------------------------------------------
    # Expression lowering
    # ------------------------------------------------------------------

    def _is_vector_valued(self, expr: Expr) -> bool:
        for node in walk_exprs(expr):
            if isinstance(node, ArrayRef):
                return True
            if isinstance(node, VarRef) and node.name in self._assigned_locals:
                return True
        return False

    def _lower_load(self, index: int, ref: ArrayRef) -> VTemp:
        access = self._access_for(index, ref)
        key = _StreamKey.of(access)
        if self.options.reuse_shifted_loads:
            key = key.residue_class()
        cached = self._load_values.get(key)
        if cached is not None:
            return cached
        stream = Stream(
            array=access.array,
            stride_words=access.stride_words,
            base=access.base,
            is_store=False,
        )
        temp = self._new_temp()
        self._ir.streams.append(stream)
        self._ir.ops.append(
            VectorOp(VectorOpKind.LOAD, (), temp, stream=stream)
        )
        self._load_values[key] = temp
        return temp

    def _lower(self, index: int, expr: Expr) -> Operand:
        if not self._is_vector_valued(expr):
            return self._scalar_for_expr(expr)
        if isinstance(expr, ArrayRef):
            return self._lower_load(index, expr)
        if isinstance(expr, VarRef):
            value = self._local_values.get(expr.name)
            if value is None:
                raise VectorizationError(
                    f"scalar {expr.name!r} is read before it is assigned "
                    "in the loop body (scalar recurrence)"
                )
            return value
        if isinstance(expr, UnaryOp) and expr.op == "-":
            inner = self._lower(index, expr.operand)
            assert isinstance(inner, VTemp)  # vector-valued by guard above
            temp = self._new_temp()
            self._ir.ops.append(VectorOp(VectorOpKind.NEG, (inner,), temp))
            return temp
        if isinstance(expr, BinOp):
            # Lower the heavier subtree first (Sethi–Ullman order): the
            # deep chain's loads issue early, so the final combining
            # operations — and the store chained onto them — tailgate
            # the last loads instead of serializing after them.  This
            # matches the schedule in the paper's LFK1 listing (the ZX
            # subexpression is evaluated before the Y load).
            if self._expression_weight(expr.right) > self._expression_weight(
                expr.left
            ):
                right = self._lower(index, expr.right)
                left = self._lower(index, expr.left)
            else:
                left = self._lower(index, expr.left)
                right = self._lower(index, expr.right)
            temp = self._new_temp()
            self._ir.ops.append(
                VectorOp(BINOP_KINDS[expr.op], (left, right), temp)
            )
            return temp
        raise VectorizationError(f"cannot vectorize expression {expr}")

    def _expression_weight(self, expr: Expr) -> int:
        """Vector-op count of a subtree (drives evaluation order)."""
        if isinstance(expr, ArrayRef):
            return 1
        if isinstance(expr, BinOp):
            return 1 + self._expression_weight(expr.left) + \
                self._expression_weight(expr.right)
        if isinstance(expr, UnaryOp):
            return 1 + self._expression_weight(expr.operand)
        return 0

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def _reduction_style(self) -> str:
        style = self.options.reduction_style
        if style is ReductionStyle.PARTIAL_SUMS:
            return "partial-sums"
        if style is ReductionStyle.DIRECT_SUM:
            return "direct-sum"
        # AUTO: nested (short, per-entry) loops keep the reduction in
        # the loop; long top-level loops accumulate a vector.
        return "direct-sum" if self.nested else "partial-sums"

    def _lower_reduction(self, index: int, stmt: Assign,
                         reduction: Reduction) -> None:
        expr = stmt.expr
        assert isinstance(expr, BinOp)
        contribution = self._lower(index, expr.right)
        if isinstance(contribution, ScalarOperand):
            raise VectorizationError(
                f"reduction contribution {expr.right} is loop-invariant"
            )
        style = self._reduction_style()
        if style == "partial-sums":
            accumulator = self._new_temp()
            self._ir.pinned.add(accumulator)
            kind = (
                VectorOpKind.ADD if reduction.op == "+" else VectorOpKind.SUB
            )
            self._ir.ops.append(
                VectorOp(kind, (accumulator, contribution), accumulator)
            )
            self._ir.reduction = ReductionPlan(
                op=reduction.op,
                style=style,
                contribution=contribution,
                accumulator=accumulator,
            )
        else:
            self._ir.reduction = ReductionPlan(
                op=reduction.op, style=style, contribution=contribution
            )

    def _lower_store(self, index: int, stmt: Assign) -> None:
        target = stmt.target
        assert isinstance(target, ArrayRef)
        value = self._lower(index, stmt.expr)
        if isinstance(value, ScalarOperand):
            raise VectorizationError(
                f"store of loop-invariant value {stmt.expr} to {target} "
                "(scalar broadcast stores are not supported)"
            )
        access = self._access_for(index, target)
        stream = Stream(
            array=access.array,
            stride_words=access.stride_words,
            base=access.base,
            is_store=True,
        )
        self._ir.streams.append(stream)
        self._ir.ops.append(
            VectorOp(VectorOpKind.STORE, (value,), None, stream=stream)
        )
        # Store forwarding: later identical loads reuse the register.
        key = _StreamKey.of(access)
        if self.options.reuse_shifted_loads:
            key = key.residue_class()
        self._load_values[key] = value

    def build(self) -> VectorLoopIR:
        reduction = self.analysis.reduction
        induction_indices = {
            ind.statement_index for ind in self.analysis.inductions.values()
        }
        for index, stmt in enumerate(self.analysis.loop.body):
            if isinstance(stmt, Continue) or index in induction_indices:
                continue
            assert isinstance(stmt, Assign)
            if reduction is not None and reduction.statement_index == index:
                self._lower_reduction(index, stmt, reduction)
            elif isinstance(stmt.target, ArrayRef):
                self._lower_store(index, stmt)
            else:
                assert isinstance(stmt.target, VarRef)
                self._local_values[stmt.target.name] = self._lower(
                    index, stmt.expr
                )
        return self._ir

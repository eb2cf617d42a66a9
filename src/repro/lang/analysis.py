"""Loop analysis: inductions, affine references, reductions, dependence.

This is the analysis half of the vectorizer.  Given an innermost
``DO`` loop it determines:

* the **induction variables** (the loop counter plus any integer
  scalar incremented by a constant once per iteration, like LFK2's
  ``i = i + 1`` or LFK4's ``lw = lw + 1``);
* for every array reference, an **affine access function**
  ``word_offset(t) = stride_words * t + base`` over the normalized
  iteration index ``t = 0..trip-1``, where ``base`` is a compile-time
  linear form over loop-invariant scalars;
* **reductions** — a scalar (or loop-invariant array element)
  accumulated with ``+``/``-`` once per iteration;
* **vectorizability** — no loop-carried true dependence, per a
  stride/base distance test; kernels compiled with ``ivdep=True``
  (the Fortran ``CDIR$ IVDEP`` directive) skip the dependence test,
  exactly as the Convex ``fc`` compiler did for LFK2/LFK6.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import VectorizationError
from .ast import (
    ArrayRef,
    Assign,
    BinOp,
    Const,
    Continue,
    DoLoop,
    Expr,
    UnaryOp,
    VarRef,
    walk_exprs,
)
from .semantics import SymbolTable


class NotAffineError(VectorizationError):
    """An index expression is not affine in the induction variables."""


# ----------------------------------------------------------------------
# Linear forms
# ----------------------------------------------------------------------


@dataclass
class LinearForm:
    """``const + sum(coeffs[v] * v) + sum(c * sym_expr)``.

    ``coeffs`` maps *induction-variable* names to integer coefficients;
    ``symbolic`` holds loop-invariant sub-expressions with their integer
    coefficients (kept as AST for later scalar code generation).
    """

    const: int = 0
    coeffs: dict[str, int] = field(default_factory=dict)
    symbolic: list[tuple[int, Expr]] = field(default_factory=list)

    def copy(self) -> "LinearForm":
        return LinearForm(
            self.const, dict(self.coeffs), list(self.symbolic)
        )

    @property
    def is_constant(self) -> bool:
        return not self.coeffs and not self.symbolic

    def add(self, other: "LinearForm") -> "LinearForm":
        result = self.copy()
        result.const += other.const
        for name, coeff in other.coeffs.items():
            result.coeffs[name] = result.coeffs.get(name, 0) + coeff
        result.symbolic.extend(other.symbolic)
        result.coeffs = {k: v for k, v in result.coeffs.items() if v}
        return result

    def scale(self, factor: int) -> "LinearForm":
        return LinearForm(
            const=self.const * factor,
            coeffs={k: v * factor for k, v in self.coeffs.items() if v * factor},
            symbolic=[(c * factor, e) for c, e in self.symbolic],
        )

    def negate(self) -> "LinearForm":
        return self.scale(-1)

    def base_delta(self, other: "LinearForm") -> int | None:
        """``self - other`` when it folds to an integer, else None.

        Two symbolic parts are comparable only when they consist of the
        same (coefficient, expression) multiset — a syntactic test, safe
        but conservative.
        """
        if self.coeffs != other.coeffs:
            return None
        key = lambda pair: (pair[0], str(pair[1]))
        if sorted(self.symbolic, key=key) != sorted(other.symbolic, key=key):
            return None
        return self.const - other.const


def linearize(
    expr: Expr,
    induction_vars: set[str],
    table: SymbolTable,
    constants: dict[str, int] | None = None,
) -> LinearForm:
    """Express an index expression as a :class:`LinearForm`.

    ``constants`` maps compile-time-known integer scalars (from
    :func:`collect_integer_constants`) to their values, so e.g. LFK8's
    ``nl1``/``nl2`` plane selectors fold into the constant part.
    Raises :class:`NotAffineError` for non-affine shapes (products of
    two variables, division, array-valued indices...).
    """
    env = constants or {}
    if isinstance(expr, Const):
        if not expr.is_integer:
            raise NotAffineError(
                f"index uses the real constant {expr}"
            )
        return LinearForm(const=int(expr.value))
    if isinstance(expr, VarRef):
        if expr.name in induction_vars:
            return LinearForm(coeffs={expr.name: 1})
        if expr.name in env:
            return LinearForm(const=env[expr.name])
        if not table.is_integer(expr.name):
            raise NotAffineError(
                f"index uses real scalar {expr.name!r}"
            )
        return LinearForm(symbolic=[(1, expr)])
    if isinstance(expr, UnaryOp) and expr.op == "-":
        return linearize(expr.operand, induction_vars, table, env).negate()
    if isinstance(expr, BinOp):
        if expr.op == "+":
            return linearize(expr.left, induction_vars, table, env).add(
                linearize(expr.right, induction_vars, table, env)
            )
        if expr.op == "-":
            return linearize(expr.left, induction_vars, table, env).add(
                linearize(expr.right, induction_vars, table, env).negate()
            )
        if expr.op == "*":
            left = linearize(expr.left, induction_vars, table, env)
            right = linearize(expr.right, induction_vars, table, env)
            if left.is_constant:
                return right.scale(left.const)
            if right.is_constant:
                return left.scale(right.const)
            raise NotAffineError(f"non-affine product {expr}")
        raise NotAffineError(f"index uses division: {expr}")
    raise NotAffineError(f"index expression {expr} is not affine")


# ----------------------------------------------------------------------
# Loop features
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Induction:
    """An integer scalar advancing by a constant step per iteration."""

    var: str
    step: int
    #: index of the incrementing statement within the loop body
    statement_index: int


@dataclass
class AccessFunction:
    """Affine word-offset access for one array reference.

    ``word_offset(t) = stride_words * t + base`` where ``base`` is a
    :class:`LinearForm` over loop-invariant scalars (the induction
    variables have been substituted by their entry values + constant
    adjustments).  ``base_vars`` names induction variables folded into
    the base (their *entry* values are meant).
    """

    array: str
    stride_words: int
    base: LinearForm
    #: per-dimension (stride over t in index units, base form) pairs,
    #: used by the subscript-by-subscript (ZIV) dependence test
    dim_accesses: tuple[tuple[int, LinearForm], ...] = ()


@dataclass
class StreamRef:
    """One array reference inside the loop body."""

    ref: ArrayRef
    access: AccessFunction
    is_store: bool
    statement_index: int


@dataclass(frozen=True)
class Reduction:
    """``acc = acc (+|-) expr`` once per iteration.

    ``acc`` is a real scalar (LFK3/LFK4) or a loop-invariant array
    element (LFK6's ``W(i)``).
    """

    target: VarRef | ArrayRef
    op: str
    statement_index: int


@dataclass
class LoopAnalysis:
    """Everything the vectorizer needs to know about an inner loop."""

    loop: DoLoop
    step: int
    vectorizable: bool
    reason: str | None
    inductions: dict[str, Induction]
    streams: list[StreamRef]
    reduction: Reduction | None

    @property
    def loads(self) -> list[StreamRef]:
        return [s for s in self.streams if not s.is_store]

    @property
    def stores(self) -> list[StreamRef]:
        return [s for s in self.streams if s.is_store]


# ----------------------------------------------------------------------
# Analysis passes
# ----------------------------------------------------------------------


def constant_int(expr: Expr) -> int | None:
    """Fold an expression to an integer when statically possible:
    integral literals under ``-``, ``+``, ``*`` and exact ``/``."""
    if isinstance(expr, Const):
        return int(expr.value) if float(expr.value).is_integer() else None
    if isinstance(expr, UnaryOp) and expr.op == "-":
        inner = constant_int(expr.operand)
        return None if inner is None else -inner
    if isinstance(expr, BinOp):
        left = constant_int(expr.left)
        right = constant_int(expr.right)
        if left is None or right is None:
            return None
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        if expr.op == "/" and right != 0 and left % right == 0:
            return left // right
    return None


def find_inductions(loop: DoLoop, table: SymbolTable) -> dict[str, Induction]:
    """Loop counter plus derived integer inductions (``i = i + c``)."""
    step = constant_int(loop.step)
    if step is None or step == 0:
        raise VectorizationError(
            f"loop step {loop.step} is not a nonzero integer constant"
        )
    inductions = {loop.var: Induction(loop.var, step, statement_index=-1)}
    assigned_counts: dict[str, int] = {}
    for stmt in loop.body:
        if isinstance(stmt, Assign) and isinstance(stmt.target, VarRef):
            name = stmt.target.name
            assigned_counts[name] = assigned_counts.get(name, 0) + 1
    for index, stmt in enumerate(loop.body):
        if not (isinstance(stmt, Assign) and isinstance(stmt.target, VarRef)):
            continue
        name = stmt.target.name
        if name == loop.var or not table.is_integer(name):
            continue
        if assigned_counts.get(name, 0) != 1:
            continue
        expr = stmt.expr
        if not isinstance(expr, BinOp) or expr.op not in "+-":
            continue
        increment = None
        if isinstance(expr.left, VarRef) and expr.left.name == name:
            increment = constant_int(expr.right)
            if increment is not None and expr.op == "-":
                increment = -increment
        elif (
            expr.op == "+"
            and isinstance(expr.right, VarRef)
            and expr.right.name == name
        ):
            increment = constant_int(expr.left)
        if increment is not None:
            inductions[name] = Induction(name, increment, index)
    return inductions


def _access_function(
    ref: ArrayRef,
    inductions: dict[str, Induction],
    pre_increments: dict[str, int],
    loop: DoLoop,
    table: SymbolTable,
    constants: dict[str, int] | None = None,
) -> AccessFunction:
    """Fold an array reference into word-offset affine form.

    ``pre_increments[v]`` counts how many times induction ``v`` has
    already been incremented before the referencing statement, so a use
    after ``i = i + 1`` (LFK2) sees the advanced value.
    """
    info = table.array(ref.name)
    induction_names = set(inductions)

    def substitute(form: LinearForm) -> tuple[int, LinearForm]:
        """Replace inductions by entry value + step * (t + pre)."""
        stride_t = 0
        base = LinearForm(const=form.const, symbolic=list(form.symbolic))
        for name, coeff in form.coeffs.items():
            induction = inductions[name]
            stride_t += coeff * induction.step
            pre = pre_increments.get(name, 0)
            base.const += coeff * induction.step * pre
            if name == loop.var:
                # entry value of the loop counter is the lower bound
                lower_const = constant_int(loop.lower)
                if lower_const is not None:
                    base.const += coeff * lower_const
                else:
                    base.symbolic.append((coeff, loop.lower))
            else:
                base.symbolic.append((coeff, VarRef(name)))
        return stride_t, base

    combined = LinearForm(const=-sum(info.dim_strides()))  # 1-based shift
    dim_accesses: list[tuple[int, LinearForm]] = []
    for index_expr, dim_stride in zip(ref.indices, info.dim_strides()):
        form = linearize(index_expr, induction_names, table, constants)
        combined = combined.add(form.scale(dim_stride))
        dim_accesses.append(substitute(form))
    stride_t, base = substitute(combined)
    return AccessFunction(
        array=ref.name, stride_words=stride_t, base=base,
        dim_accesses=tuple(dim_accesses),
    )


def _detect_reduction(
    stmt: Assign, index: int, table: SymbolTable,
    inductions: dict[str, Induction],
) -> Reduction | None:
    """Recognize ``acc = acc (+|-) rest`` accumulation statements."""
    target = stmt.target
    expr = stmt.expr
    if not isinstance(expr, BinOp) or expr.op not in "+-":
        return None
    left = expr.left
    if isinstance(target, VarRef):
        if table.is_integer(target.name):
            return None
        if isinstance(left, VarRef) and left.name == target.name:
            return Reduction(target, expr.op, index)
    elif isinstance(target, ArrayRef):
        if isinstance(left, ArrayRef) and left == target:
            # Loop-invariant element only (stride 0 over the loop).
            induction_names = set(inductions)
            invariant = not any(
                isinstance(e, VarRef) and e.name in induction_names
                for ix_expr in target.indices
                for e in walk_exprs(ix_expr)
            )
            if invariant:
                return Reduction(target, expr.op, index)
    return None


def collect_integer_constants(statements) -> dict[str, int]:
    """Compile-time-known integer scalars of a kernel.

    A scalar qualifies when it has exactly one assignment site in the
    whole program, that site is at nesting depth zero (not inside any
    DO loop), and the right-hand side folds to an integer given the
    constants discovered so far (so ``m = (1001-7)/2`` chains).  Because
    the single site stores a constant, re-execution through a backward
    GOTO cannot change the value.
    """
    from .ast import DoLoop as _DoLoop, walk_statements as _walk

    assignment_sites: dict[str, int] = {}
    for stmt in _walk(statements):
        if isinstance(stmt, Assign) and isinstance(stmt.target, VarRef):
            name = stmt.target.name
            assignment_sites[name] = assignment_sites.get(name, 0) + 1
    constants: dict[str, int] = {}

    def fold(expr: Expr) -> int | None:
        if isinstance(expr, VarRef) and expr.name in constants:
            return constants[expr.name]
        if isinstance(expr, Const):
            value = float(expr.value)
            return int(value) if value.is_integer() else None
        if isinstance(expr, UnaryOp) and expr.op == "-":
            inner = fold(expr.operand)
            return None if inner is None else -inner
        if isinstance(expr, BinOp):
            left, right = fold(expr.left), fold(expr.right)
            if left is None or right is None:
                return None
            if expr.op == "+":
                return left + right
            if expr.op == "-":
                return left - right
            if expr.op == "*":
                return left * right
            if expr.op == "/" and right != 0:
                return int(left / right)  # Fortran truncation
        return None

    for stmt in statements:  # depth zero only
        if isinstance(stmt, _DoLoop):
            continue
        if not (isinstance(stmt, Assign) and isinstance(stmt.target, VarRef)):
            continue
        name = stmt.target.name
        if assignment_sites.get(name) != 1:
            continue
        value = fold(stmt.expr)
        if value is not None:
            constants[name] = value
    return constants


def analyze_loop(
    loop: DoLoop,
    table: SymbolTable,
    ivdep: bool = False,
    constants: dict[str, int] | None = None,
) -> LoopAnalysis:
    """Analyze an innermost DO loop for vectorization."""
    step = constant_int(loop.step)
    if step is None or step == 0:
        return LoopAnalysis(
            loop, step=1, vectorizable=False,
            reason=f"non-constant loop step {loop.step}",
            inductions={}, streams=[], reduction=None,
        )
    for stmt in loop.body:
        if isinstance(stmt, (Assign, Continue)):
            continue
        return LoopAnalysis(
            loop, step, vectorizable=False,
            reason=f"loop body contains control flow ({type(stmt).__name__})",
            inductions={}, streams=[], reduction=None,
        )

    inductions = find_inductions(loop, table)
    streams: list[StreamRef] = []
    reduction: Reduction | None = None
    pre_increments: dict[str, int] = {}

    try:
        for index, stmt in enumerate(loop.body):
            if isinstance(stmt, Continue):
                continue
            assert isinstance(stmt, Assign)
            induction_stmt = any(
                ind.statement_index == index for ind in inductions.values()
            )
            if induction_stmt:
                assert isinstance(stmt.target, VarRef)
                name = stmt.target.name
                pre_increments[name] = pre_increments.get(name, 0) + 1
                continue
            detected = _detect_reduction(stmt, index, table, inductions)
            if detected is not None:
                if reduction is not None:
                    return LoopAnalysis(
                        loop, step, vectorizable=False,
                        reason="multiple reductions in one loop",
                        inductions=inductions, streams=streams,
                        reduction=None,
                    )
                reduction = detected
            for ref in _collect_reads(stmt, detected):
                streams.append(
                    StreamRef(
                        ref=ref,
                        access=_access_function(
                            ref, inductions, pre_increments, loop, table,
                            constants,
                        ),
                        is_store=False,
                        statement_index=index,
                    )
                )
            if isinstance(stmt.target, ArrayRef) and detected is None:
                streams.append(
                    StreamRef(
                        ref=stmt.target,
                        access=_access_function(
                            stmt.target, inductions, pre_increments,
                            loop, table, constants,
                        ),
                        is_store=True,
                        statement_index=index,
                    )
                )
            elif isinstance(stmt.target, VarRef) and detected is None:
                if not table.is_integer(stmt.target.name):
                    # Real scalar defined per iteration: a vector
                    # temporary, not a memory stream (LFK10's AR/BR/CR).
                    continue
                return LoopAnalysis(
                    loop, step, vectorizable=False,
                    reason=(
                        f"integer scalar {stmt.target.name!r} assigned "
                        "in loop is not an induction"
                    ),
                    inductions=inductions, streams=streams, reduction=None,
                )
    except NotAffineError as exc:
        return LoopAnalysis(
            loop, step, vectorizable=False, reason=str(exc),
            inductions=inductions, streams=streams, reduction=None,
        )

    if not ivdep:
        conflict = _dependence_conflict(streams)
        if conflict is None and reduction is not None and isinstance(
            reduction.target, ArrayRef
        ):
            # The reduction stores into an array element; any other read
            # of the same array might alias it (needs range analysis the
            # frontend does not do — require IVDEP, as fc did for LFK6).
            for stream in streams:
                if stream.access.array == reduction.target.name:
                    conflict = (
                        f"{stream.ref} may alias the reduction target "
                        f"{reduction.target} (use ivdep if independent)"
                    )
                    break
        if conflict is not None:
            return LoopAnalysis(
                loop, step, vectorizable=False, reason=conflict,
                inductions=inductions, streams=streams, reduction=reduction,
            )
    return LoopAnalysis(
        loop, step, vectorizable=True, reason=None,
        inductions=inductions, streams=streams, reduction=reduction,
    )


def _collect_reads(stmt: Assign, reduction: Reduction | None) -> list[ArrayRef]:
    """Array reads of a statement; a reduction skips its own accumulator."""
    reads = [
        e for e in walk_exprs(stmt.expr) if isinstance(e, ArrayRef)
    ]
    if reduction is not None and isinstance(reduction.target, ArrayRef):
        # Drop exactly one read of the accumulator element itself.
        for i, ref in enumerate(reads):
            if ref == reduction.target:
                del reads[i]
                break
    if isinstance(stmt.target, ArrayRef):
        for index_expr in stmt.target.indices:
            reads.extend(
                e for e in walk_exprs(index_expr) if isinstance(e, ArrayRef)
            )
    return reads


def _dependence_conflict(streams: list[StreamRef]) -> str | None:
    """Loop-carried true-dependence test over affine streams.

    Returns a human-readable description of the first conflict, or None
    when the loop is safely vectorizable.
    """
    stores = [s for s in streams if s.is_store]
    for store in stores:
        for other in streams:
            if other is store or other.access.array != store.access.array:
                continue
            conflict = _pairwise_conflict(store, other)
            if conflict:
                return conflict
    return None


def _pairwise_conflict(store: StreamRef, other: StreamRef) -> str | None:
    # Subscript-by-subscript test first: one provably-unequal invariant
    # dimension (ZIV) or interleaved induction dimension proves the
    # references independent regardless of the other subscripts (this
    # is what separates LFK8's nl1/nl2 planes and kx/kx+1 rows).
    store_dims = store.access.dim_accesses
    other_dims = other.access.dim_accesses
    if len(store_dims) == len(other_dims):
        for (stride_w, base_w), (stride_o, base_o) in zip(
            store_dims, other_dims
        ):
            if stride_w != stride_o:
                continue  # this subscript alone proves nothing
            delta = base_o.base_delta(base_w)
            if delta is None:
                continue
            if stride_w == 0 and delta != 0:
                return None  # distinct invariant planes
            if stride_w != 0 and delta % stride_w != 0:
                return None  # interleaved, never meet
    a_w = store.access.stride_words
    a_o = other.access.stride_words
    if a_w != a_o:
        return (
            f"store {store.ref} (stride {a_w}) and {other.ref} "
            f"(stride {a_o}) to array {store.access.array}: "
            "unequal strides, dependence unknown"
        )
    delta = other.access.base.base_delta(store.access.base)
    if delta is None:
        return (
            f"store {store.ref} and {other.ref}: base offsets not "
            "comparable, dependence unknown"
        )
    if delta == 0:
        return None  # same element, same iteration: forwarded in registers
    if a_w == 0:
        return (
            f"store {store.ref} and {other.ref} hit the same element "
            "every iteration"
        )
    if delta % a_w != 0:
        return None  # interleaved streams never collide
    distance = delta // a_w
    if other.is_store:
        return None  # output dependence: last write wins either way
    if distance < 0:
        return (
            f"{other.ref} reads elements written {-distance} "
            f"iteration(s) earlier by {store.ref} (true recurrence)"
        )
    # Anti-dependence (reads elements written by a *later* iteration):
    # safe only when the vector load precedes the vector store, i.e.
    # the reading statement comes first in the body.
    if other.statement_index > store.statement_index:
        return (
            f"{other.ref} follows the store {store.ref} but reads "
            f"elements it overwrites {distance} iteration(s) ahead"
        )
    return None

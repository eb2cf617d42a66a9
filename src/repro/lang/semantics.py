"""Semantic analysis for the mini-Fortran language.

Builds a :class:`SymbolTable` (arrays with shapes, scalars with
implicit Fortran types), checks every reference against it, and
provides the column-major linearization used throughout the compiler:
element ``A(i1, i2, …)`` of an array with dims ``(d1, d2, …)`` lives at
word offset ``(i1-1) + (i2-1)*d1 + (i3-1)*d1*d2 + …``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import SemanticError
from .ast import (
    ArrayRef,
    Assign,
    Dimension,
    DoLoop,
    Expr,
    IfGoto,
    SourceProgram,
    VarRef,
    walk_exprs,
    walk_statements,
)


class ScalarType(enum.Enum):
    INTEGER = "integer"
    REAL = "real"


def implicit_type(name: str) -> ScalarType:
    """Fortran implicit typing: I–N integer, otherwise real."""
    return (
        ScalarType.INTEGER
        if name[0].upper() in "IJKLMN"
        else ScalarType.REAL
    )


@dataclass(frozen=True)
class ArrayInfo:
    """Shape and layout of one declared array."""

    name: str
    dims: tuple[int, ...]

    @property
    def size_words(self) -> int:
        size = 1
        for d in self.dims:
            size *= d
        return size

    def dim_strides(self) -> tuple[int, ...]:
        """Column-major word stride of each dimension."""
        strides = []
        running = 1
        for d in self.dims:
            strides.append(running)
            running *= d
        return tuple(strides)

    def word_offset(self, indices: tuple[int, ...]) -> int:
        """Word offset of a concrete (1-based) element."""
        if len(indices) != len(self.dims):
            raise SemanticError(
                f"array {self.name} has {len(self.dims)} dims, "
                f"indexed with {len(indices)}"
            )
        offset = 0
        for index, dim, stride in zip(
            indices, self.dims, self.dim_strides()
        ):
            if not 1 <= index <= dim:
                raise SemanticError(
                    f"{self.name}: index {index} out of bounds 1..{dim}"
                )
            offset += (index - 1) * stride
        return offset


class SymbolTable:
    """Arrays and scalars of one kernel."""

    def __init__(self):
        self.arrays: dict[str, ArrayInfo] = {}
        self.scalars: dict[str, ScalarType] = {}

    def declare_array(self, name: str, dims: tuple[int, ...]) -> ArrayInfo:
        if name in self.arrays:
            raise SemanticError(f"array {name!r} declared twice")
        if name in self.scalars:
            raise SemanticError(
                f"{name!r} used as both a scalar and an array"
            )
        if not dims or any(d <= 0 for d in dims):
            raise SemanticError(
                f"array {name!r}: dims must be positive, got {dims}"
            )
        info = ArrayInfo(name, dims)
        self.arrays[name] = info
        return info

    def note_scalar(self, name: str) -> ScalarType:
        if name in self.arrays:
            raise SemanticError(
                f"{name!r} used as both a scalar and an array"
            )
        stype = self.scalars.get(name)
        if stype is None:
            stype = implicit_type(name)
            self.scalars[name] = stype
        return stype

    def array(self, name: str) -> ArrayInfo:
        try:
            return self.arrays[name]
        except KeyError:
            raise SemanticError(
                f"array {name!r} is not declared; "
                f"declared: {sorted(self.arrays)}"
            ) from None

    def is_integer(self, name: str) -> bool:
        return self.scalars.get(name, implicit_type(name)) is ScalarType.INTEGER


def _check_expr(expr: Expr, table: SymbolTable) -> None:
    for node in walk_exprs(expr):
        if isinstance(node, ArrayRef):
            info = table.array(node.name)
            if len(node.indices) != len(info.dims):
                raise SemanticError(
                    f"array {node.name} has {len(info.dims)} dims, "
                    f"indexed with {len(node.indices)}"
                )
        elif isinstance(node, VarRef):
            table.note_scalar(node.name)


def analyze_program(program: SourceProgram) -> SymbolTable:
    """Build and validate the symbol table of a kernel."""
    table = SymbolTable()
    labels_seen: set[str] = set()
    for stmt in walk_statements(program.statements):
        if getattr(stmt, "label", None):
            if stmt.label in labels_seen:
                raise SemanticError(f"duplicate statement label {stmt.label}")
            labels_seen.add(stmt.label)
        if isinstance(stmt, Dimension):
            for name, dims in stmt.arrays:
                table.declare_array(name, dims)
    for stmt in walk_statements(program.statements):
        if isinstance(stmt, Assign):
            _check_expr(stmt.expr, table)
            if isinstance(stmt.target, ArrayRef):
                _check_expr(stmt.target, table)
            else:
                table.note_scalar(stmt.target.name)
        elif isinstance(stmt, DoLoop):
            if not table.is_integer(stmt.var):
                raise SemanticError(
                    f"loop variable {stmt.var!r} must be an integer"
                )
            table.note_scalar(stmt.var)
            for bound in (stmt.lower, stmt.upper, stmt.step):
                _check_expr(bound, table)
        elif isinstance(stmt, IfGoto):
            _check_expr(stmt.condition, table)
    # Validate GOTO targets last, once all labels are known.
    for stmt in walk_statements(program.statements):
        if isinstance(stmt, IfGoto) and stmt.target not in labels_seen:
            raise SemanticError(
                f"GOTO target {stmt.target!r} does not label any statement"
            )
    return table

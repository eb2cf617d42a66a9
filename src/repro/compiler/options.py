"""Compiler configuration.

The options deliberately expose the behaviours of the Convex ``fc``
V6.1 compiler that the paper's MA→MAC and MAC→MACS gaps hinge on, so
ablation experiments can turn each one off:

* ``reuse_shifted_loads`` — ``fc`` reloads shifted streams
  (``ZX(k+10)`` / ``ZX(k+11)``) instead of keeping reused elements in
  registers; this is the compiler-inserted excess memory traffic behind
  the MA→MAC gap in LFK 1, 7 and 12.  Setting True emulates an ideal
  compiler that converts shifted reuse into register moves.
* ``ivdep`` — honor the source's vector-dependence override (LFK2 and
  LFK6 are only vectorizable with it, as on the real machine).
* ``reduction_style`` — ``"auto"`` picks partial-sums for top-level
  reduction loops (LFK3) and an in-loop ``sum.d`` for nested short
  loops (LFK4/LFK6), mirroring observed fc code; can be forced.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass

from ..errors import CompileError


class ReductionStyle(enum.Enum):
    #: decide per loop: nested loops use DIRECT_SUM, top-level PARTIAL_SUMS
    AUTO = "auto"
    #: accumulate into a vector register, one sum.d after the loop
    PARTIAL_SUMS = "partial-sums"
    #: sum.d inside the loop every strip, scalar accumulate
    DIRECT_SUM = "direct-sum"


@dataclass(frozen=True)
class CompilerOptions:
    """Knobs for :func:`repro.compiler.compile_kernel`."""

    #: honor IVDEP (skip the loop-carried dependence test)
    ivdep: bool = False
    #: how to compile reductions (see :class:`ReductionStyle`)
    reduction_style: ReductionStyle = ReductionStyle.AUTO
    #: emulate an ideal compiler that keeps shifted reuse in registers
    reuse_shifted_loads: bool = False
    #: total scalar (s) registers available for floating point values
    scalar_fp_registers: int = 8
    #: total address (a) registers; a0 is reserved as the zero base
    address_registers: int = 8
    #: hardware vector length for strip mining
    vector_length: int = 128
    #: allow falling back to scalar code for non-vectorizable loops
    allow_scalar_fallback: bool = True
    #: run the static lint suite over the emitted program and raise
    #: :class:`~repro.errors.LintError` on error-severity findings
    verify: bool = False

    def __post_init__(self):
        if self.vector_length <= 0:
            raise CompileError("vector_length must be positive")
        if not 2 <= self.scalar_fp_registers <= 8:
            raise CompileError("scalar_fp_registers must be in 2..8")
        if not 6 <= self.address_registers <= 8:
            raise CompileError("address_registers must be in 6..8")

    def replace(self, **changes) -> "CompilerOptions":
        return dataclasses.replace(self, **changes)


DEFAULT_OPTIONS = CompilerOptions()


def parse_options_string(text: str) -> CompilerOptions:
    """Parse ``--options "key=value,key=value"`` into CompilerOptions.

    Booleans accept true/false/1/0/yes/no; ``reduction_style`` takes
    the enum values (auto, partial-sums, direct-sum).  Raises
    :class:`ValueError` with an actionable message on malformed input.
    """
    fields = {f.name for f in dataclasses.fields(DEFAULT_OPTIONS)}
    changes = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        name, separator, raw = item.partition("=")
        name = name.strip().replace("-", "_")
        raw = raw.strip()
        if not separator or not name or not raw:
            raise ValueError(
                f"malformed --options item {item!r}; expected key=value"
            )
        if name not in fields:
            raise ValueError(
                f"unknown compiler option {name!r}; known: "
                f"{', '.join(sorted(fields))}"
            )
        default = getattr(DEFAULT_OPTIONS, name)
        if isinstance(default, bool):
            lowered = raw.lower()
            if lowered in ("true", "1", "yes"):
                changes[name] = True
            elif lowered in ("false", "0", "no"):
                changes[name] = False
            else:
                raise ValueError(
                    f"option {name!r} expects a boolean, got {raw!r}"
                )
        elif isinstance(default, int):
            try:
                changes[name] = int(raw)
            except ValueError:
                raise ValueError(
                    f"option {name!r} expects an integer, got {raw!r}"
                ) from None
        elif isinstance(default, ReductionStyle):
            try:
                changes[name] = ReductionStyle(raw)
            except ValueError:
                raise ValueError(
                    f"option {name!r} expects one of "
                    f"{[s.value for s in ReductionStyle]}, got {raw!r}"
                ) from None
        else:
            changes[name] = raw
    return DEFAULT_OPTIONS.replace(**changes)

"""Architectural register state for the simulator.

:class:`RegisterFile` holds the *functional* values: address registers
(integers, typically byte offsets), scalar registers (floats — loop
counters are stored as exact integer-valued floats), the eight
128-element vector registers, the VL / VS special registers, and the
test flag set by compare instructions.

Timing state (when each value becomes *available*) lives separately, in
the flat per-run lists of :func:`repro.machine.pipeline.run_lowered`.
"""

from __future__ import annotations

import numpy as np

from ..errors import SimulationError
from ..isa.registers import (
    NUM_ADDRESS_REGISTERS,
    NUM_SCALAR_REGISTERS,
    NUM_VECTOR_REGISTERS,
    Register,
    RegisterClass,
    VECTOR_REGISTER_LENGTH,
)


class RegisterFile:
    """Functional values of all architectural registers."""

    def __init__(self, max_vl: int = VECTOR_REGISTER_LENGTH):
        self.max_vl = max_vl
        self.a = np.zeros(NUM_ADDRESS_REGISTERS, dtype=np.int64)
        self.s = np.zeros(NUM_SCALAR_REGISTERS, dtype=np.float64)
        self.v = np.zeros(
            (NUM_VECTOR_REGISTERS, VECTOR_REGISTER_LENGTH), dtype=np.float64
        )
        self.vl = max_vl
        self.vs = 1
        self.flag = False

    # ------------------------------------------------------------------

    def read(self, register: Register) -> float | int:
        """Read a scalar-valued register (a/s/VL/VS)."""
        cls = register.rclass
        if cls is RegisterClass.ADDRESS:
            return int(self.a[register.index])
        if cls is RegisterClass.SCALAR:
            return float(self.s[register.index])
        if cls is RegisterClass.VECTOR_LENGTH:
            return self.vl
        if cls is RegisterClass.VECTOR_STRIDE:
            return self.vs
        raise SimulationError(
            f"cannot read {register.name} as a scalar value"
        )

    def write(self, register: Register, value: float | int) -> None:
        """Write a scalar-valued register (a/s/VL/VS).

        Writes to VL are clamped to ``[0, max_vl]``: the strip-mined
        loops move the remaining trip count into VL and rely on the
        hardware clamp for full strips (see
        :meth:`repro.isa.builder.AsmBuilder.strip_loop`).
        """
        cls = register.rclass
        if cls is RegisterClass.ADDRESS:
            self.a[register.index] = int(value)
        elif cls is RegisterClass.SCALAR:
            self.s[register.index] = float(value)
        elif cls is RegisterClass.VECTOR_LENGTH:
            self.vl = max(0, min(int(value), self.max_vl))
        elif cls is RegisterClass.VECTOR_STRIDE:
            self.vs = int(value)
        else:
            raise SimulationError(
                f"cannot write {register.name} as a scalar value"
            )

    def read_vector(self, register: Register) -> np.ndarray:
        """Active elements (``[:VL]``) of a vector register."""
        if not register.is_vector:
            raise SimulationError(f"{register.name} is not a vector register")
        return self.v[register.index, : self.vl]

    def write_vector(self, register: Register, values: np.ndarray) -> None:
        if not register.is_vector:
            raise SimulationError(f"{register.name} is not a vector register")
        if len(values) != self.vl:
            raise SimulationError(
                f"vector write of {len(values)} elements with VL={self.vl}"
            )
        self.v[register.index, : self.vl] = values

    def prime_vectors(self, value: float = 3.0) -> None:
        """Fill all vector registers with a safe nonzero value.

        Used before running X-process code, whose vector loads have been
        deleted: computing on uninitialized registers must not raise
        floating-point exceptions (paper §3.6 primes registers with
        "large, relatively prime, nonzero" numbers for the same reason).
        """
        for i in range(NUM_VECTOR_REGISTERS):
            # Distinct odd values per register: relatively prime, nonzero.
            self.v[i, :] = value + 2.0 * i

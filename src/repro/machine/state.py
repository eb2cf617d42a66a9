"""Architectural register state for the simulator.

:class:`RegisterFile` holds the *functional* values: address registers
(integers, typically byte offsets), scalar registers (floats — loop
counters are stored as exact integer-valued floats), the eight
128-element vector registers, the VL / VS special registers, and the
test flag set by compare instructions.  The lowered steps of
:mod:`repro.machine.semantics` read and write the arrays directly: an
address register holds an int, a scalar register a float, and a write
to VL clamps to ``[0, max_vl]``.

Timing state (when each value becomes *available*) lives separately, in
the flat per-run lists of :func:`repro.machine.pipeline.run_lowered`.
"""

from __future__ import annotations

import numpy as np

from ..isa.registers import (
    NUM_ADDRESS_REGISTERS,
    NUM_SCALAR_REGISTERS,
    NUM_VECTOR_REGISTERS,
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

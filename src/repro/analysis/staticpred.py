"""Static performance prediction: the simulator's answer without the
simulator.

:func:`predict_program` abstractly interprets a compiled program and
returns the same cycle count and counter schema a
:class:`~repro.machine.simulator.Simulator` run would produce — plus a
confidence interval — without executing a single vector element.

The engine rests on one structural fact about the C-240 timing model:
the timing rules consume only *control* state (the instruction stream,
branch directions, and VL at each vector instruction), never vector
*data*.  A walker that resolves control flow exactly can therefore
drive the simulator's own run loop
(:func:`~repro.machine.pipeline.run_lowered`) with abstract steps and
reproduce the simulator's cycles bit for bit.  Control flow in the
compiled kernels is scalar-register arithmetic over known inputs, so
the walker tracks an abstraction of the scalar machine:

* **a/s/VS registers** — concrete Python ``int``/``float`` values, or
  TOP (data-dependent: loaded from unknown memory, read out of a
  vector, or a ``sum`` reduction).  Scalar float arithmetic mirrors
  the simulator's steps (:func:`~repro.machine.semantics.lower_step`)
  operation for operation, so concrete values are bit-identical to the
  interpreter's.
* **VL** — always concrete (the strip-mine protocol writes it from
  trip counters); a write from TOP aborts the exact tier.
* **flag** — concrete ``bool`` or TOP; a conditional branch on TOP
  aborts the exact tier.
* **memory** — a partial map ``word -> float`` seeded from the known
  initial image (scalar inputs + compiler literal pool); stores with
  unknown addresses clear it, loads of unmapped words produce TOP.

The walker's steps replace only the simulator's value closures: the
run loop, its timing records, counters and watchdog budgets are the
ones :meth:`Simulator.run <repro.machine.simulator.Simulator.run>` uses,
so every executed instruction, loop iterations included, is timed by
the same code.  Only the vector element values are left out.

When a proof obligation fails (a data-dependent branch, a ``T_LEGACY``
instruction, the scalar-cache model), prediction falls back to the
**model tier**: :func:`~repro.analysis.counts.estimate_counts` for the
vector counters and :func:`~repro.analysis.critpath.critical_path` for
a MACS-style cycle bound, published with a deliberately wide
confidence interval (see :data:`MODEL_TIER_WIDEN`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any

from ..errors import AnalysisError
from ..isa.program import Program
from ..machine.config import MachineConfig
from ..machine.memory import MemorySystem
from ..machine.pipeline import RunTotals, lower, run_lowered
from ..machine.semantics import (
    OP_ADD,
    OP_DIV,
    OP_MUL,
    CMP_LE,
    CMP_LT,
    K_A,
    K_IMM,
    K_S,
    K_VL,
    T_ALU,
    T_BR,
    T_BRS,
    T_CMP,
    T_LD_S,
    T_LD_V,
    T_LEGACY,
    T_MOV,
    T_MOV_VV,
    T_NEG_S,
    T_NEG_V,
    T_ST_S,
    T_ST_V,
    T_SUM,
    DecodedInstruction,
    decode_program,
)
from ..resilience import faults as _faults
from ..schedule.chimes import ChimeRules, refresh_factor_for

#: Mirror of the simulator's runaway guard.
DEFAULT_MAX_INSTRUCTIONS = 5_000_000

#: Documented confidence-interval widening factor for the model tier:
#: the chime critical path is an optimistic MACS-style bound, so the
#: interval [bound, MODEL_TIER_WIDEN * bound] brackets delivered
#: performance for every workload shape the calibration ledger has
#: seen (docs/static-tier.md).
MODEL_TIER_WIDEN = 4.0

__all__ = [
    "DEFAULT_MAX_INSTRUCTIONS",
    "MODEL_TIER_WIDEN",
    "StaticPrediction",
    "predict_program",
]


class _Bail(Exception):
    """Internal: the exact tier cannot continue (reason attached)."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass(frozen=True)
class StaticPrediction:
    """One static prediction in the simulator's result schema.

    ``tier`` is ``"exact"`` (cycle-exact walk: every counter and the
    cycle count equal a simulator run bit for bit) or ``"model"``
    (MACS-style bound with estimated scalar counters).  The
    ``cycles_low``/``cycles_high`` interval is degenerate for the
    exact tier and ``[bound, MODEL_TIER_WIDEN * bound]`` for the
    model tier.
    """

    program_name: str
    tier: str
    cycles: float
    cycles_low: float
    cycles_high: float
    instructions_executed: int
    vector_instructions: int
    scalar_instructions: int
    vector_memory_ops: int
    scalar_memory_ops: int
    flops: int
    #: why the exact tier declined (model tier only)
    decline_reason: str | None = None

    @property
    def exact(self) -> bool:
        return self.tier == "exact"

    @property
    def relative_width(self) -> float:
        """Half-width of the confidence interval relative to cycles."""
        if self.cycles <= 0:
            return 0.0
        return (self.cycles_high - self.cycles_low) / (2.0 * self.cycles)

    def counters(self) -> dict[str, int]:
        """The simulator's counters, under its attribute names."""
        return {
            "instructions_executed": self.instructions_executed,
            "vector_instructions": self.vector_instructions,
            "scalar_instructions": self.scalar_instructions,
            "vector_memory_ops": self.vector_memory_ops,
            "scalar_memory_ops": self.scalar_memory_ops,
            "flops": self.flops,
        }

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "program": self.program_name,
            "tier": self.tier,
            "exact": self.exact,
            "cycles": self.cycles,
            "cycles_low": self.cycles_low,
            "cycles_high": self.cycles_high,
        }
        payload.update(self.counters())
        if self.decline_reason is not None:
            payload["decline_reason"] = self.decline_reason
        return payload


# ----------------------------------------------------------------------
# The exact tier: a timing shadow execution
# ----------------------------------------------------------------------


class _Walker:
    """Abstract interpreter driving the simulator's run loop.

    TOP is represented as ``None`` in the register lists and as an
    absent key in the memory map.  All mirror arithmetic happens on
    the same Python ``int``/``float`` types as the simulator's
    :func:`~repro.machine.semantics.lower_step` closures.
    """

    def __init__(
        self,
        program: Program,
        config: MachineConfig,
        known_memory: dict[int, float] | None,
        max_instructions: int,
    ):
        if config.scalar_cache_enabled:
            # Scalar-cache hit/miss timing depends on every scalar
            # load address; unknown addresses would poison the clock.
            raise _Bail("scalar-cache-enabled")
        self.program = program
        self.config = config
        self.max_instructions = max_instructions
        self.decoded = decode_program(program)
        # -- abstract architectural state (RegisterFile reset mirror) --
        from ..isa.registers import (
            NUM_ADDRESS_REGISTERS,
            NUM_SCALAR_REGISTERS,
        )

        self.max_vl = config.max_vl
        self.a: list[int | None] = [0] * NUM_ADDRESS_REGISTERS
        self.s: list[float | None] = [0.0] * NUM_SCALAR_REGISTERS
        self.vl: int = config.max_vl
        self.vs: int | None = 1
        self.flag: bool | None = False
        self.mem: dict[int, float] = dict(known_memory or {})

    # -- abstract scalar semantics (lower_step mirror) -----------------

    def _fetch(self, spec: Any) -> int | float | None:
        """Raw scalar operand (mirror of ``semantics._getter``)."""
        kind, payload = spec
        if kind == K_IMM:
            return payload  # int or float exactly as decoded
        if kind == K_A:
            return self.a[payload]
        if kind == K_S:
            return self.s[payload]
        if kind == K_VL:
            return self.vl
        return self.vs

    def _fetch_float(self, spec: Any) -> float | None:
        """Floated ALU operand (mirror of ``semantics._float_getter``)."""
        value = self._fetch(spec)
        return None if value is None else float(value)

    def _write(self, spec: Any, value: int | float | None) -> None:
        """Scalar register write (mirror of ``semantics._setter``)."""
        kind, payload = spec
        if kind == K_A:
            self.a[payload] = None if value is None else int(value)
        elif kind == K_S:
            self.s[payload] = None if value is None else float(value)
        elif kind == K_VL:
            if value is None:
                raise _Bail("vl-from-unknown-value")
            self.vl = max(0, min(int(value), self.max_vl))
        else:
            self.vs = None if value is None else int(value)

    def _address(self, d: DecodedInstruction) -> int | None:
        base = self.a[d.base_idx]
        return None if base is None else base + d.offset

    def _step(self, d: DecodedInstruction) -> bool:
        """Abstractly execute one instruction; returns branch-taken."""
        tag = d.tag
        if tag == T_ALU:
            if d.dest_vec_idx is not None:
                return False  # vector result: no scalar state touched
            if d.lhs_spec[0] == "v" or d.rhs_spec[0] == "v":
                self._write(d.dest_spec, None)  # flat[0] of vector data
                return False
            lhs = self._fetch_float(d.lhs_spec)
            rhs = self._fetch_float(d.rhs_spec)
            if lhs is None or rhs is None:
                self._write(d.dest_spec, None)
                return False
            op = d.alu_op
            if op == OP_ADD:
                result = lhs + rhs
            elif op == OP_MUL:
                result = lhs * rhs
            elif op == OP_DIV:
                if rhs == 0.0:
                    raise _Bail("scalar-divide-by-zero")
                result = lhs / rhs
            else:
                result = lhs - rhs
            self._write(d.dest_spec, float(result))
            return False
        if tag in (T_LD_V, T_ST_V, T_MOV_VV, T_NEG_V):
            return False  # pure vector data; timing needs no address
        if tag == T_LD_S:
            address = self._address(d)
            if address is None:
                self._write(d.dest_spec, None)
                return False
            if address % 8:
                raise _Bail("scalar-load-unaligned")
            self._write(d.dest_spec, self.mem.get(address // 8))
            return False
        if tag == T_ST_S:
            address = self._address(d)
            if address is None:
                # unknown destination: every known word is suspect
                self.mem.clear()
                return False
            if address % 8:
                raise _Bail("scalar-store-unaligned")
            value = self._fetch(d.src_spec)
            word = address // 8
            if value is None:
                self.mem.pop(word, None)
            else:
                self.mem[word] = float(value)
            return False
        if tag == T_MOV:
            self._write(d.dest_spec, self._fetch(d.src_spec))
            return False
        if tag == T_CMP:
            lhs = self._fetch(d.lhs_spec)
            rhs = self._fetch(d.rhs_spec)
            if lhs is None or rhs is None:
                self.flag = None
            elif d.cmp_op == CMP_LT:
                self.flag = lhs < rhs
            elif d.cmp_op == CMP_LE:
                self.flag = lhs <= rhs
            else:
                self.flag = lhs == rhs
            return False
        if tag == T_BRS:
            if self.flag is None:
                raise _Bail("branch-on-unknown-flag")
            return self.flag if d.branch_sense else not self.flag
        if tag == T_BR:
            return True
        if tag == T_SUM:
            self.s[d.dest_spec[1]] = None  # data-dependent reduction
            return False
        if tag == T_NEG_S:
            value = self._fetch(d.src_spec)
            self._write(d.dest_spec, None if value is None else -value)
            return False
        if tag == T_LEGACY:
            raise _Bail("legacy-instruction")
        return False

    def run(self) -> RunTotals:
        """Drive the pipeline's run loop with the abstract steps."""
        decoded = self.decoded
        config = self.config
        # the loop reads timing parameters only; no words are stored
        memory = MemorySystem(0, config)
        lowered = lower(
            decoded, [partial(self._step, d) for d in decoded],
            config, memory,
        )
        return run_lowered(
            self.program.name, lowered, self, config, memory,
            self.max_instructions,
        )


# ----------------------------------------------------------------------
# The model tier: counts oracle + chime critical path
# ----------------------------------------------------------------------


def _model_tier(
    program: Program,
    config: MachineConfig,
    trips: tuple[int, ...] | None,
    reason: str,
) -> StaticPrediction:
    from . import analyze_program
    from .counts import estimate_counts
    from .critpath import critical_path

    if trips is None:
        raise AnalysisError(
            f"{program.name}: static prediction declined "
            f"({reason}) and no trip profile was given for the "
            "model tier"
        )
    analysis = analyze_program(program)
    counts = estimate_counts(
        analysis.cfg, analysis.dataflow, trips, config.max_vl
    )
    path = critical_path(
        analysis.cfg,
        analysis.dataflow,
        trips,
        rules=ChimeRules.for_machine(config),
        timings=config.timings,
        max_vl=config.max_vl,
        refresh=config.refresh_enabled,
        refresh_factor=refresh_factor_for(config),
    )
    bound = path.estimated_cycles
    if bound is None or bound <= 0:
        raise AnalysisError(
            f"{program.name}: static prediction declined ({reason}) "
            "and the critical-path bound is unavailable"
        )
    # Scalar counters are estimated from the static shape: strip-loop
    # blocks execute once per strip, everything else once.
    strip = analysis.strip_loop
    loop_blocks = strip.loop.blocks if strip is not None else frozenset()
    decoded = decode_program(program)
    scalar_in_loop = 0
    scalar_outside = 0
    smem_in_loop = 0
    smem_outside = 0
    for block in analysis.cfg.blocks:
        in_loop = block.index in loop_blocks
        for pc in block.pcs():
            d = decoded[pc]
            if d.is_vector:
                continue
            if in_loop:
                scalar_in_loop += 1
                smem_in_loop += 1 if d.is_scalar_memory else 0
            else:
                scalar_outside += 1
                smem_outside += 1 if d.is_scalar_memory else 0
    scalar_instructions = (
        scalar_outside + counts.strips * scalar_in_loop
    )
    scalar_memory_ops = smem_outside + counts.strips * smem_in_loop
    return StaticPrediction(
        program_name=program.name,
        tier="model",
        cycles=float(bound),
        cycles_low=float(bound),
        cycles_high=float(bound) * MODEL_TIER_WIDEN,
        instructions_executed=(
            counts.vector_instructions + scalar_instructions
        ),
        vector_instructions=counts.vector_instructions,
        scalar_instructions=scalar_instructions,
        vector_memory_ops=counts.vector_memory_ops,
        scalar_memory_ops=scalar_memory_ops,
        flops=counts.flops,
        decline_reason=reason,
    )


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def predict_program(
    program: Program,
    config: MachineConfig,
    known_memory: dict[int, float] | None = None,
    trips: tuple[int, ...] | None = None,
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
) -> StaticPrediction:
    """Statically predict a program run under ``config``.

    ``known_memory`` maps word offsets to their known initial values
    (scalar inputs and the compiler's literal pool — everything the
    walker needs to resolve trip counts).  ``trips`` enables the
    model-tier fallback when the exact tier declines.

    Typed budget errors (:class:`~repro.errors.BudgetExceededError`)
    propagate exactly as a simulator run would raise them; only
    exact-tier *proof* failures fall back to the model tier.
    """
    try:
        totals = _Walker(
            program, config, known_memory, max_instructions
        ).run()
    except _Bail as bail:
        return _model_tier(program, config, trips, bail.reason)
    cycles = float(totals.cycles)
    spec = _faults.check("static.predict")
    if spec is not None and spec.kind == "skew":
        # Chaos hook: push the static cycles off the exact timeline so
        # the calibration loop has a real defect to catch.  Dead (one
        # ``is None`` test) without an armed plan.
        cycles += spec.value
    return StaticPrediction(
        program_name=program.name,
        tier="exact",
        cycles=cycles,
        cycles_low=cycles,
        cycles_high=cycles,
        instructions_executed=totals.instructions_executed,
        vector_instructions=totals.vector_instructions,
        scalar_instructions=totals.scalar_instructions,
        vector_memory_ops=totals.vector_memory_ops,
        scalar_memory_ops=totals.scalar_memory_ops,
        flops=totals.flops,
    )

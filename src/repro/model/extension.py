"""Extended MACS: short vectors, loop-entry overhead, reduction latency.

The paper notes that its steady-state bound leaves LFK 2, 4 and 6
largely unexplained, and points at the remedy: *"Outer loop overhead
and scalar code could be modeled as in [5]"* (§4.4).  This module is
that extension.  It keeps MACS's analytic character — no simulation —
but evaluates the chime costs at the loop's *actual* vector lengths and
charges the per-entry work the steady-state model idealizes away:

``t_XMACS = [ sum over entries e:
                sum over strips s of e: chimes(VL_s)
                + E_entry ] / total_iterations``

with ``E_entry`` composed of

* the compiled preheader and epilogue instruction counts (recorded by
  the code generator),
* the pipeline fill of the first chime chain (its chained Y latencies
  are not yet masked on entry),
* per-entry scalar statements of the enclosing loop/GOTO region
  (LFK2's halving arithmetic, LFK4's ``temp``/``X(k-1)`` updates),
* the enclosing scalar loop's own bookkeeping, and
* per-strip reduction serialization for direct-sum loops (the
  ``sum.d`` result must reach the scalar accumulator before the next
  strip's sum can retire).

The result is still a *bound-flavoured model* rather than a strict
lower bound: the per-entry terms are estimates.  On the case study it
closes most of the LFK 2/4/6 gap (see the ``extension-short-vectors``
experiment) while leaving the steady-state kernels untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..compiler import CompiledKernel, LoopPlan
from ..errors import ModelError
from ..isa.timing import TimingTable, default_timing_table
from ..lang.ast import Assign, DoLoop, IfGoto, Stmt
from ..schedule.chimes import ChimePartition, ChimeRules, DEFAULT_RULES, partition_chimes
from .macs import inner_loop_body

#: Average cycles to execute one scalar statement (a couple of
#: memory-resident operand accesses plus ALU work).
CYCLES_PER_SCALAR_STATEMENT = 5.0
#: Cycles per preheader/epilogue instruction (mostly scalar, some
#: short memory accesses).
CYCLES_PER_OVERHEAD_INSTRUCTION = 1.5
#: Bookkeeping cycles per iteration of an enclosing scalar DO loop
#: (counter/trip loads, updates, stores, compare, branch).
ENCLOSING_LOOP_BOOKKEEPING = 10.0
#: Extra serialization per strip of a direct-sum reduction: the sum's
#: first-result latency plus the scalar accumulate.
REDUCTION_STRIP_LATENCY = 12.0


@dataclass(frozen=True)
class ExtendedMacsBound:
    """Short-vector-aware MACS model for one kernel."""

    cpl: float
    steady_cpl: float
    entry_overhead_cycles: float
    strip_count: int
    entries: int

    @property
    def short_vector_penalty_cpl(self) -> float:
        """How much the actual vector-length profile costs over the
        steady-state VL=128 bound."""
        return self.cpl - self.steady_cpl


def _strip_lengths(trips: int, vl: int) -> list[int]:
    strips, remainder = divmod(trips, vl)
    lengths = [vl] * strips
    if remainder:
        lengths.append(remainder)
    return lengths


def _first_chime_fill(
    partition: ChimePartition, timings: TimingTable
) -> float:
    """Chained Y latencies of the first chime (unmasked on entry)."""
    if not partition.chimes:
        return 0.0
    return float(
        sum(
            timings.lookup(instr.timing_key).y
            for instr in partition.chimes[0].instructions
        )
    )


def _entry_statements(compiled: CompiledKernel, plan: LoopPlan) -> int:
    """Scalar statements executed once per loop entry.

    For a nested loop these are its siblings in the parent DO body; for
    a top-level loop reached through a backward GOTO they are the other
    statements of the GOTO region.
    """
    statements = compiled.source.statements
    parent = _parent_loop(statements, plan.loop)
    if parent is not None:
        return sum(
            1 for s in parent.body
            if isinstance(s, (Assign, IfGoto)) and s is not plan.loop
        )
    region = _goto_region(statements, plan.loop)
    if region is not None:
        return sum(
            1 for s in region
            if isinstance(s, (Assign, IfGoto)) and s is not plan.loop
        )
    return 0


def _parent_loop(statements: list[Stmt], target: DoLoop) -> DoLoop | None:
    for stmt in statements:
        if isinstance(stmt, DoLoop):
            if any(s is target for s in stmt.body):
                return stmt
            found = _parent_loop(stmt.body, target)
            if found is not None:
                return found
    return None


def _goto_region(
    statements: list[Stmt], target: DoLoop
) -> list[Stmt] | None:
    """The [label .. IF GOTO] span containing a top-level loop."""
    try:
        loop_index = next(
            i for i, s in enumerate(statements) if s is target
        )
    except StopIteration:
        return None
    for goto_index in range(loop_index + 1, len(statements)):
        stmt = statements[goto_index]
        if isinstance(stmt, IfGoto):
            label = stmt.target
            for start in range(loop_index, -1, -1):
                if getattr(statements[start], "label", None) == label:
                    return statements[start : goto_index + 1]
    return None


def extended_macs_bound(
    compiled: CompiledKernel,
    trip_profile: tuple[int, ...],
    vl: int = 128,
    timings: TimingTable | None = None,
    rules: ChimeRules = DEFAULT_RULES,
) -> ExtendedMacsBound:
    """Evaluate the extended MACS model for a compiled kernel."""
    if not trip_profile:
        raise ModelError("trip_profile must contain at least one entry")
    if any(t < 0 for t in trip_profile):
        raise ModelError(f"negative trip count in profile {trip_profile}")
    if timings is None:
        timings = default_timing_table()
    plan = compiled.innermost_vector_plan()
    body = inner_loop_body(compiled.program)
    partition = partition_chimes(body, rules)
    total_iterations = sum(trip_profile)
    if total_iterations == 0:
        raise ModelError("trip profile sums to zero iterations")

    reduction = plan.ir.reduction if plan.ir else None
    direct_reduction = (
        reduction is not None and reduction.style == "direct-sum"
    )
    entry_overhead = (
        (plan.preheader_instructions + plan.epilogue_instructions)
        * CYCLES_PER_OVERHEAD_INSTRUCTION
        + _first_chime_fill(partition, timings)
        + _entry_statements(compiled, plan) * CYCLES_PER_SCALAR_STATEMENT
        + (ENCLOSING_LOOP_BOOKKEEPING if plan.nested else 0.0)
    )

    total_cycles = 0.0
    strip_count = 0
    for trips in trip_profile:
        total_cycles += entry_overhead
        for length in _strip_lengths(trips, vl):
            total_cycles += partition.total_cycles(length, timings)
            if direct_reduction:
                total_cycles += REDUCTION_STRIP_LATENCY
            strip_count += 1

    steady = partition.cpl(vl, timings)
    return ExtendedMacsBound(
        cpl=total_cycles / total_iterations,
        steady_cpl=steady,
        entry_overhead_cycles=entry_overhead,
        strip_count=strip_count,
        entries=len(trip_profile),
    )

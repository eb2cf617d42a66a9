"""Instruction-level timing model of the C-240 CPU, and the run loop.

The model tracks, per function pipe and per register, *when* values and
resources become available, and computes for each instruction the four
time points the paper's calibration experiments talk about:

``dispatch``
    when the in-order issue unit picks the instruction up;
``start``
    when its first element enters the function pipe (after the ``X``
    issue overhead, any pipe/port/operand waits, and the tailgating
    bubble ``B``);
``first_result``
    ``start + Y`` — first element result available (chaining consumers
    may begin here);
``complete``
    when the last element result is available.

The model reproduces the paper's §3.3 behaviours:

* **chaining** — a consumer starts as soon as the producer's first
  element is available and streams at the slower of the two rates;
* **tailgating with bubbles** — successive instructions enter a pipe
  back-to-back, at the cost of the empirical per-instruction bubble
  ``B`` from Table 1 (``sum(B)`` per chime, paper eq. 13);
* **single memory port** — vector memory streams and scalar accesses
  serialize, so a scalar load splits chimes;
* **memory refresh** — streams overlapping a refresh stall 8 cycles;
* **bank throttling** — non-unit power-of-two strides stream slower.

A run happens in two steps.  :func:`lower` resolves, once per run and
in time linear in the program, every per-instruction fact the rules
need (pipe slot, ``X``/``Y``/``Z``/``B``, the bank-limited base rate,
register slots as plain ints) into one record per pc, next to a *step*
closure that applies the instruction's value semantics.
:func:`run_lowered` is the one run loop: it calls each step, applies the
timing rules to state held in flat lists indexed by pipe, vector
register and scalar slot, counts, traces and enforces the watchdog
budgets.  :class:`~repro.machine.simulator.Simulator` is its only
caller.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any

from ..errors import SimulationError
from ..isa.instructions import Instruction, Pipe
from ..isa.registers import NUM_VECTOR_REGISTERS, Register, RegisterClass
from ..resilience import watchdog
from .cache import CacheStats, ScalarCache
from .config import MachineConfig
from .memory import MemorySystem
from .semantics import DecodedInstruction


@dataclass(frozen=True)
class InstructionTiming:
    """Timing record for one executed instruction (trace entry)."""

    pc: int
    instruction: Instruction
    dispatch: float
    start: float
    first_result: float
    complete: float
    vl: int
    pipe: Pipe | None

    @property
    def latency(self) -> float:
        return self.complete - self.dispatch


#: Function pipes by slot.
_PIPES = tuple(Pipe)
_PIPE_SLOT = {pipe: slot for slot, pipe in enumerate(_PIPES)}

#: Flat slot of each scalar-valued register: a0-a7, s0-s7, VL, VS, VM.
_SLOT_BASE = {
    RegisterClass.ADDRESS: 0,
    RegisterClass.SCALAR: 8,
    RegisterClass.VECTOR_LENGTH: 16,
    RegisterClass.VECTOR_STRIDE: 17,
    RegisterClass.VECTOR_MERGE: 18,
}
_SCALAR_SLOTS = 19


def _scalar_slot(register: Register) -> int:
    """Index of a scalar-valued register in the flat ready-time list."""
    return _SLOT_BASE[register.rclass] + register.index


#: One lowered instruction: ``(step, target_pc, vector, scalar)``.
#: ``step()`` applies the value semantics and returns True when a
#: branch is taken.  Exactly one of ``vector`` / ``scalar`` holds the
#: instruction's timing facts, the other is None:
#:
#: ``vector`` = ``(pipe, x, y, b, rate, vl_floor, has_mem, reads,
#: dest_v, dest_s, scalar_reads, flop_count, instr)``, where ``b`` is 0
#: when bubbles are off, ``rate`` is ``max(Z, bank-limited stream
#: rate)`` for memory operations and ``Z`` otherwise, ``reads`` are
#: vector register indices, and ``dest_v`` / ``dest_s`` the vector /
#: scalar destination (-1 when absent);
#:
#: ``scalar`` = ``(scalar_reads, scalar_writes, is_branch, is_compare,
#: memory, base_idx, offset, instr)``, where ``memory`` is 0 (none),
#: 1 (load) or 2 (store).
Lowered = tuple[Callable[[], bool], int, Any, Any]

_NO_MEMORY, _LOAD, _STORE = 0, 1, 2


def lower(
    decoded: Sequence[DecodedInstruction],
    steps: Sequence[Callable[[], bool]],
    config: MachineConfig,
    memory: MemorySystem,
) -> tuple[Lowered, ...]:
    """Pair each pc's step with its pre-resolved timing facts."""
    timings = config.timings
    records: list[Lowered] = []
    for d, step in zip(decoded, steps):
        scalar_reads = tuple(_scalar_slot(r) for r in d.scalar_reads)
        if d.is_vector:
            timing = timings.lookup(d.timing_key)
            rate = timing.z
            has_mem = d.mem_stride is not None
            if has_mem:
                rate = max(rate, memory.stream_rate(d.mem_stride))
            dest = d.dest_reg
            vector = (
                _PIPE_SLOT[d.pipe], timing.x, timing.y,
                timing.b if config.bubbles_enabled else 0,
                rate, timing.vl_floor, has_mem, d.vector_read_idxs,
                dest.index if d.dest_is_vector else -1,
                _scalar_slot(dest)
                if dest is not None and not d.dest_is_vector else -1,
                scalar_reads, d.flop_count, d.instr,
            )
            records.append((step, d.target_pc, vector, None))
        else:
            if not d.touches_memory:
                memory_kind = _NO_MEMORY
            elif d.mnemonic == "ld":
                memory_kind = _LOAD
            else:
                memory_kind = _STORE
            scalar = (
                scalar_reads,
                tuple(_scalar_slot(r) for r in d.scalar_writes),
                d.is_branch, d.is_compare, memory_kind,
                d.base_idx, d.offset, d.instr,
            )
            records.append((step, d.target_pc, None, scalar))
    return tuple(records)


@dataclass
class RunTotals:
    """What one run of :func:`run_lowered` measured."""

    cycles: float
    instructions_executed: int
    vector_instructions: int
    scalar_instructions: int
    vector_memory_ops: int
    scalar_memory_ops: int
    flops: int
    trace: list[InstructionTiming]
    #: populated when the scalar-cache model is enabled
    scalar_cache: CacheStats | None


def run_lowered(
    name: str,
    lowered: Sequence[Lowered],
    registers: Any,
    config: MachineConfig,
    memory: MemorySystem,
    max_instructions: int,
    record_trace: bool = False,
) -> RunTotals:
    """Step and time the lowered program from pc 0 until control falls
    off either end.

    ``registers`` is the register state the steps update; the loop
    reads its ``vl`` and, for the scalar-cache model, its address
    registers ``a``.

    Raises :class:`~repro.errors.BudgetExceededError` when
    ``max_instructions`` or the config's ``cycle_budget`` is exhausted
    (the cycle ceiling is checked before each instruction and once more
    on the drained finish time), and :class:`SimulationError` when a
    vector instruction runs with ``VL <= 0`` or a step faults (a
    division by zero, or an inf or NaN written to an integer
    register); the message names the pc and the original exception
    is chained.
    """
    chaining = config.chaining_enabled
    refresh = config.refresh_enabled
    refresh_stall = memory.refresh_stall_for_stream
    stall_scalar_access = memory.stall_scalar_access
    issue = config.scalar_issue_cycles
    branch_penalty = config.branch_taken_penalty
    load_latency = float(config.scalar_load_latency)
    cache = (
        ScalarCache(config.scalar_cache_lines,
                    config.scalar_cache_line_words)
        if config.scalar_cache_enabled else None
    )
    hit_latency = float(config.scalar_cache_hit_latency)
    miss_latency = float(config.scalar_cache_miss_latency)
    cycle_budget = config.cycle_budget

    # -- timing state ---------------------------------------------------
    issue_clock = 0.0  # in-order single-issue front end
    port_free = 0.0  # the single CPU<->memory port
    flag_ready = 0.0
    last_complete = 0.0
    #: per pipe: when its input stage frees (tailgating point), and the
    #: start of its most recent instruction (the one-deep reservation
    #: station frees when that instruction starts)
    pipe_input = [0.0] * len(_PIPES)
    pipe_reserved = [0.0] * len(_PIPES)
    #: per vector register: its contents' availability profile —
    #: element i lands at first + i * rate, the last at end
    stream_first = [0.0] * NUM_VECTOR_REGISTERS
    stream_rate = [1.0] * NUM_VECTOR_REGISTERS
    stream_end = [0.0] * NUM_VECTOR_REGISTERS
    #: per vector register: (start, rate) of its most recent reader
    read_start = [0.0] * NUM_VECTOR_REGISTERS
    read_rate = [1.0] * NUM_VECTOR_REGISTERS
    #: per scalar slot: when its value is ready
    ready = [0.0] * _SCALAR_SLOTS

    trace: list[InstructionTiming] = []
    executed = 0
    vector_count = 0
    scalar_count = 0
    vector_memory = 0
    scalar_memory = 0
    flops = 0
    n_instructions = len(lowered)
    pc = 0
    try:
        while 0 <= pc < n_instructions:
            if executed >= max_instructions:
                watchdog.check_instructions(executed, max_instructions, name)
            if cycle_budget is not None:
                watchdog.check_cycles(issue_clock, cycle_budget, name)
            step, target_pc, vector, scalar = lowered[pc]
            taken = step()
            if vector is not None:
                (pipe, x, y, b, rate, vl_floor, has_mem, reads, dest_v,
                 dest_s, scalar_reads, flop_count, instr) = vector
                vl = registers.vl
                if vl <= 0:
                    raise SimulationError(
                        f"pc {pc}: vector instruction {instr} executed with "
                        f"VL={vl}"
                    )
                # in-order dispatch; one-deep per-pipe reservation
                dispatch = issue_clock
                if pipe_reserved[pipe] > dispatch:
                    dispatch = pipe_reserved[pipe]
                for slot in scalar_reads:
                    if ready[slot] > dispatch:
                        dispatch = ready[slot]
                issue_clock = start = dispatch + x
                # element streaming start
                if pipe_input[pipe] > start:
                    start = pipe_input[pipe]
                if has_mem and port_free > start:
                    start = port_free
                # Chained consumers start on the producer's first element;
                # without chaining they wait for the full stream to land.
                for v in reads:
                    t = stream_first[v] if chaining else stream_end[v]
                    if t > start:
                        start = t
                if dest_v >= 0:
                    # WAR: the writer's elements chase the reader's —
                    # element i is overwritten at start + Y + i*rate and
                    # must land after the reader consumed it at
                    # reader_start + i*reader_rate.  Chasing is only safe
                    # when the writer is no faster than the reader;
                    # otherwise wait for the reader to start and add its
                    # full sweep.
                    if rate >= read_rate[dest_v]:
                        t = read_start[dest_v] - y + 1.0
                    else:
                        t = read_start[dest_v] + vl * read_rate[dest_v]
                    if t > start:
                        start = t
                    # WAW: preserve element write ordering.
                    t = stream_first[dest_v] - y
                    if t > start:
                        start = t
                start += b
                # rate coupling with still-streaming producers
                for v in reads:
                    if start < stream_end[v] and stream_rate[v] > rate:
                        rate = stream_rate[v]
                span = (vl if vl >= vl_floor else vl_floor) * rate
                if has_mem and refresh:
                    stall = refresh_stall(start, start + span)
                    if stall:
                        # Spread the stall across the stream so chained
                        # consumers (which adopt the producer's rate)
                        # inherit the refresh delay too.
                        span += stall
                        rate = span / vl
                first_result = start + y
                complete = first_result + span
                # state updates
                pipe_input[pipe] = start + span
                pipe_reserved[pipe] = start
                if has_mem:
                    port_free = start + span
                    vector_memory += 1
                for v in reads:
                    if start >= read_start[v]:
                        read_start[v] = start
                        read_rate[v] = rate
                if dest_v >= 0:
                    stream_first[dest_v] = first_result
                    stream_rate[dest_v] = rate
                    stream_end[dest_v] = complete
                elif dest_s >= 0:
                    # a reduction writes a scalar when all elements are in
                    ready[dest_s] = complete
                if complete > last_complete:
                    last_complete = complete
                vector_count += 1
                flops += flop_count * vl
                if record_trace:
                    trace.append(InstructionTiming(
                        pc, instr, dispatch, start, first_result, complete,
                        vl, _PIPES[pipe],
                    ))
            else:
                (scalar_reads, scalar_writes, is_branch, is_compare,
                 memory_kind, base_idx, offset, instr) = scalar
                dispatch = issue_clock
                for slot in scalar_reads:
                    if ready[slot] > dispatch:
                        dispatch = ready[slot]
                if is_branch and flag_ready > dispatch:
                    dispatch = flag_ready
                if memory_kind:
                    # The single CPU<->memory port: wait for any vector
                    # stream to drain, then take a one-cycle access slot
                    # (this is what terminates chimes at scalar memory
                    # references, §3.3).
                    start = dispatch if dispatch >= port_free else port_free
                    if refresh:
                        start = stall_scalar_access(start)
                    port_free = start + 1.0
                    if memory_kind == _STORE:
                        complete = start + 1.0
                    elif cache is None:
                        complete = start + load_latency
                    else:
                        # Vector streams bypass the cache (paper §2), so
                        # only scalar loads consult it.
                        word = (int(registers.a[base_idx]) + offset) // 8
                        complete = start + (
                            hit_latency if cache.load(word) else miss_latency
                        )
                    issue_clock = start + issue
                    scalar_memory += 1
                else:
                    start = dispatch
                    complete = dispatch + issue
                    issue_clock = complete
                    if taken:
                        issue_clock += branch_penalty
                if is_compare:
                    flag_ready = complete
                for slot in scalar_writes:
                    ready[slot] = complete
                if complete > last_complete:
                    last_complete = complete
                scalar_count += 1
                if record_trace:
                    trace.append(InstructionTiming(
                        pc, instr, dispatch, start, complete, complete,
                        vl=0, pipe=None,
                    ))
            executed += 1
            pc = target_pc if taken else pc + 1
    except (ArithmeticError, ValueError) as exc:
        # A step divided by zero, or converted an inf or NaN element
        # into an integer register.
        instr = (vector if vector is not None else scalar)[-1]
        raise SimulationError(
            f"{name}: pc {pc}: {instr} faulted: {exc}"
        ) from exc

    # when everything in flight has drained
    cycles = max(issue_clock, last_complete, port_free, *pipe_input)
    if cycle_budget is not None:
        watchdog.check_cycles(cycles, cycle_budget, name)
    return RunTotals(
        cycles=cycles,
        instructions_executed=executed,
        vector_instructions=vector_count,
        scalar_instructions=scalar_count,
        vector_memory_ops=vector_memory,
        scalar_memory_ops=scalar_memory,
        flops=flops,
        trace=trace,
        scalar_cache=cache.stats if cache is not None else None,
    )

"""Machine configuration for the Convex C-240 simulator.

Default values follow the paper:

* §2 — 40 ns effective clock, 32 memory banks, 8-byte words, 8-cycle
  bank cycle time, one memory port per CPU, four CPUs;
* §3.2 — memory refresh every 16 µs (400 cycles) lasting 8 cycles;
* Table 1 — vector instruction X/Y/Z/B parameters (carried separately
  in :class:`repro.isa.timing.TimingTable`);
* §4.2 — loaded-machine memory contention stretches the effective
  access time from 40 ns toward 56–64 ns.

All knobs are exposed so ablation experiments can switch individual
effects off (``with_...`` helpers return modified copies).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from ..errors import MachineError
from ..isa.timing import TimingTable, default_timing_table


@dataclass(frozen=True)
class MachineConfig:
    """Parameters of the simulated C-240 CPU and memory system."""

    #: Effective system clock period in nanoseconds (paper §2).
    clock_period_ns: float = 40.0
    #: CPUs sharing the memory system (the C-240 has four).
    cpus: int = 4
    #: Hardware maximum vector length.
    max_vl: int = 128
    #: Vector chaining: a consumer may start on the producer's *first*
    #: element result instead of waiting for the full stream (§3.3).
    chaining_enabled: bool = True
    #: Number of interleaved memory banks (standard configuration).
    memory_banks: int = 32
    #: Bank cycle (busy) time in clock cycles.
    bank_cycle_time: int = 8
    #: Cycles between memory refreshes (16 us / 40 ns = 400).
    refresh_period: int = 400
    #: Cycles a refresh occupies the memory.
    refresh_duration: int = 8
    #: Model memory refresh at all (ablation switch).
    refresh_enabled: bool = True
    #: Apply tailgating bubbles (ablation switch).
    bubbles_enabled: bool = True
    #: Cycles the ASU needs to issue a scalar instruction.
    scalar_issue_cycles: int = 1
    #: Result latency of a scalar load (through the ASU data cache).
    #: With the cache model disabled this flat latency applies to every
    #: scalar load (an always-hit-ish assumption).
    scalar_load_latency: int = 4
    #: Model the ASU's scalar data cache explicitly (off by default).
    scalar_cache_enabled: bool = False
    #: Direct-mapped cache geometry (power-of-two lines / line words).
    scalar_cache_lines: int = 64
    scalar_cache_line_words: int = 4
    #: Scalar load latencies with the cache model on.
    scalar_cache_hit_latency: int = 2
    scalar_cache_miss_latency: int = 14
    #: Extra cycles a taken branch costs beyond its issue slot.
    branch_taken_penalty: int = 2
    #: Chime composition rule: at most two reads and one write per
    #: vector register pair per chime (§3.3 rule 2).
    chime_register_pairs: bool = True
    #: Chime composition rule: a chime with a vector memory access ends
    #: at a scalar memory reference (§3.3 rule 3).
    chime_scalar_memory_splits: bool = True
    #: Multiplier (>= 1) on vector memory streaming rate modelling
    #: contention from other CPUs; 1.0 = idle machine.  A heavily loaded
    #: machine runs at one access per 56-64 ns => factor 1.4-1.6 (§4.2).
    memory_contention_factor: float = 1.0
    #: Watchdog ceiling on total simulated cycles (``None`` = no
    #: ceiling).  A run that blows past it raises a typed
    #: :class:`~repro.errors.BudgetExceededError` instead of grinding
    #: on — the sweep records it as a deterministic error outcome.
    cycle_budget: float | None = None
    #: Vector instruction timing parameters (paper Table 1).
    timings: TimingTable = field(default_factory=default_timing_table)

    def __post_init__(self):
        if self.clock_period_ns <= 0:
            raise MachineError("clock_period_ns must be positive")
        if self.cpus <= 0:
            raise MachineError("cpus must be positive")
        if self.max_vl <= 0:
            raise MachineError("max_vl must be positive")
        if self.memory_banks <= 0:
            raise MachineError("memory_banks must be positive")
        if self.bank_cycle_time <= 0:
            raise MachineError("bank_cycle_time must be positive")
        if self.refresh_period <= self.refresh_duration:
            raise MachineError(
                "refresh_period must exceed refresh_duration "
                f"({self.refresh_period} <= {self.refresh_duration})"
            )
        if self.memory_contention_factor < 1.0:
            raise MachineError(
                "memory_contention_factor must be >= 1.0, got "
                f"{self.memory_contention_factor}"
            )
        if self.scalar_issue_cycles < 1:
            raise MachineError("scalar_issue_cycles must be >= 1")
        if self.scalar_load_latency < 1:
            raise MachineError("scalar_load_latency must be >= 1")
        if self.branch_taken_penalty < 0:
            raise MachineError("branch_taken_penalty must be >= 0")
        if self.cycle_budget is not None and self.cycle_budget <= 0:
            raise MachineError(
                f"cycle_budget must be positive, got {self.cycle_budget}"
            )
        if self.scalar_cache_lines <= 0 or self.scalar_cache_line_words <= 0:
            raise MachineError("scalar cache geometry must be positive")
        if not (
            1 <= self.scalar_cache_hit_latency
            <= self.scalar_cache_miss_latency
        ):
            raise MachineError(
                "need 1 <= scalar_cache_hit_latency <= "
                "scalar_cache_miss_latency"
            )

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------

    @property
    def clock_mhz(self) -> float:
        return 1000.0 / self.clock_period_ns

    def effective_access_ns(self) -> float:
        """Effective memory access time under the configured contention."""
        return self.clock_period_ns * self.memory_contention_factor

    # ------------------------------------------------------------------
    # Ablation / variation helpers
    # ------------------------------------------------------------------

    def replace(self, **changes) -> "MachineConfig":
        """Copy with the given fields changed."""
        return dataclasses.replace(self, **changes)

    def without_refresh(self) -> "MachineConfig":
        return self.replace(refresh_enabled=False)

    def without_chaining(self) -> "MachineConfig":
        return self.replace(chaining_enabled=False)

    def without_bubbles(self) -> "MachineConfig":
        return self.replace(
            bubbles_enabled=False, timings=self.timings.without_bubbles()
        )

    def with_contention(self, factor: float) -> "MachineConfig":
        return self.replace(memory_contention_factor=factor)

    def with_scalar_cache(self, **changes) -> "MachineConfig":
        """Copy with the explicit scalar-cache model enabled."""
        return self.replace(scalar_cache_enabled=True, **changes)

    def with_cycle_budget(self, cycles: float | None) -> "MachineConfig":
        """Copy with a watchdog ceiling on simulated cycles."""
        return self.replace(cycle_budget=cycles)


#: The paper's machine, idle (single process measurements).
DEFAULT_CONFIG = MachineConfig()

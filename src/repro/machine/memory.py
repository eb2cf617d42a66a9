"""The C-240 memory system model.

Combines three concerns:

* **functional storage** — a flat array of 8-byte words holding the
  simulated program's data, with strided vector access;
* **bank timing** — 32 interleaved banks with an 8-cycle bank busy
  time.  Unit-stride streams touch a new bank every access and sustain
  one element per cycle; power-of-two strides revisit banks early and
  throttle the stream (paper §3.1's "bank conflicts due to nonunit
  stride memory accesses");
* **refresh timing** — a refresh every ``refresh_period`` cycles
  occupies the memory for ``refresh_duration`` cycles and suspends any
  in-flight access stream that overlaps it (paper §3.2).
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import MemoryError_
from ..isa.operands import WORD_BYTES
from .config import MachineConfig


class MemorySystem:
    """Banked, refreshed memory with strided functional access."""

    def __init__(self, size_words: int, config: MachineConfig):
        if size_words < 0:
            raise MemoryError_(f"size_words must be >= 0, got {size_words}")
        self.config = config
        self._words = np.zeros(size_words, dtype=np.float64)

    # ------------------------------------------------------------------
    # Functional storage
    # ------------------------------------------------------------------

    @property
    def size_words(self) -> int:
        return len(self._words)

    def _word_index(self, address_bytes: int) -> int:
        if address_bytes % WORD_BYTES:
            raise MemoryError_(
                f"unaligned access at byte address {address_bytes}"
            )
        index = address_bytes // WORD_BYTES
        if not 0 <= index < len(self._words):
            raise MemoryError_(
                f"word address {index} out of range "
                f"(0..{len(self._words) - 1})"
            )
        return index

    def _vector_start(
        self, address_bytes: int, stride_words: int, count: int
    ) -> int:
        """First word of a strided access; checks its first and last
        word against the memory's bounds."""
        start = self._word_index(address_bytes)
        last = start + stride_words * (count - 1)
        if count and not 0 <= last < len(self._words):
            raise MemoryError_(
                f"vector access [{min(start, last)}..{max(start, last)}] "
                f"(stride {stride_words}) exceeds memory of "
                f"{len(self._words)} words"
            )
        return start

    def read_word(self, address_bytes: int) -> float:
        return float(self._words[self._word_index(address_bytes)])

    def write_word(self, address_bytes: int, value: float) -> None:
        self._words[self._word_index(address_bytes)] = value

    def read_vector(
        self, address_bytes: int, stride_words: int, count: int
    ) -> np.ndarray:
        start = self._vector_start(address_bytes, stride_words, count)
        if stride_words > 0:
            stop = start + stride_words * count
            return self._words[start:stop:stride_words].copy()
        # fancy indexing already copies
        return self._words[start + stride_words * np.arange(count)]

    def write_vector(
        self,
        address_bytes: int,
        stride_words: int,
        values: np.ndarray,
    ) -> None:
        count = len(values)
        start = self._vector_start(address_bytes, stride_words, count)
        if stride_words > 0:
            stop = start + stride_words * count
            self._words[start:stop:stride_words] = values
        else:
            # repeated indices (stride 0) keep the last value
            self._words[start + stride_words * np.arange(count)] = values

    def load_array(self, offset_words: int, values: np.ndarray) -> None:
        """Bulk-initialize a region (used to set up kernel input data)."""
        end = offset_words + len(values)
        if offset_words < 0 or end > len(self._words):
            raise MemoryError_(
                f"load_array [{offset_words}..{end}) exceeds memory of "
                f"{len(self._words)} words"
            )
        self._words[offset_words:end] = values

    def dump_array(self, offset_words: int, count: int) -> np.ndarray:
        end = offset_words + count
        if offset_words < 0 or end > len(self._words):
            raise MemoryError_(
                f"dump_array [{offset_words}..{end}) exceeds memory of "
                f"{len(self._words)} words"
            )
        return self._words[offset_words:end].copy()

    # ------------------------------------------------------------------
    # Bank timing
    # ------------------------------------------------------------------

    def stream_rate(self, stride_words: int) -> float:
        """Sustained cycles per element for a vector stream.

        A stream of stride ``s`` revisits the same bank every
        ``banks / gcd(s, banks)`` accesses.  When that is fewer than the
        bank busy time, the stream throttles to ``busy * gcd / banks``
        cycles per element.  Stride 0 (scalar broadcast) hammers one
        bank but the C-240 services repeated reads of the same word from
        the bank buffer, so it is treated as unit rate.  The configured
        multiprocessor contention factor also stretches the rate.
        """
        banks = self.config.memory_banks
        busy = self.config.bank_cycle_time
        magnitude = abs(stride_words)
        if magnitude == 0:
            base = 1.0
        else:
            revisit = banks // math.gcd(magnitude, banks)
            base = max(1.0, busy / revisit)
        return base * self.config.memory_contention_factor

    # ------------------------------------------------------------------
    # Refresh timing
    # ------------------------------------------------------------------

    def next_refresh_at(self, cycle: float) -> float:
        """First refresh window starting at or after ``cycle``."""
        period = self.config.refresh_period
        return math.ceil(cycle / period) * period if cycle > 0 else 0.0

    def refresh_window_containing(self, cycle: float) -> tuple[float, float] | None:
        """The refresh window covering ``cycle``, if any."""
        if not self.config.refresh_enabled:
            return None
        period = self.config.refresh_period
        duration = self.config.refresh_duration
        window_start = math.floor(cycle / period) * period
        if window_start <= cycle < window_start + duration:
            return (window_start, window_start + duration)
        return None

    def stall_scalar_access(self, cycle: float) -> float:
        """Delay a single access out of any refresh window."""
        window = self.refresh_window_containing(cycle)
        return window[1] if window else cycle

    def refresh_stall_for_stream(self, start: float, end: float) -> float:
        """Total refresh stall cycles for a stream active on [start, end).

        Each refresh whose window opens while the stream is active
        suspends it for the full refresh duration, which in turn may
        push the stream across further refresh boundaries; the expansion
        is iterated to a fixed point.
        """
        if not self.config.refresh_enabled or end <= start:
            return 0.0
        period = self.config.refresh_period
        duration = self.config.refresh_duration
        stall = 0.0
        # A stream starting inside a refresh window waits it out first.
        window = self.refresh_window_containing(start)
        if window is not None:
            stall += window[1] - start
            boundary = window[0] + period
        else:
            boundary = self.next_refresh_at(start)
            if boundary == start:
                boundary += period  # the window at `start` was handled
        effective_end = end + stall
        while boundary < effective_end:
            stall += duration
            effective_end += duration
            boundary += period
        return stall

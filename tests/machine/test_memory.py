"""Memory system tests: storage, banks, refresh."""

import numpy as np
import pytest

from repro.errors import MachineError, MemoryError_
from repro.machine import MachineConfig, MemorySystem

CFG = MachineConfig()


def make_memory(words=256, config=CFG):
    return MemorySystem(words, config)


class TestFunctionalStorage:
    def test_word_read_write(self):
        mem = make_memory()
        mem.write_word(16, 2.5)
        assert mem.read_word(16) == 2.5

    def test_unaligned_access_rejected(self):
        with pytest.raises(MemoryError_):
            make_memory().read_word(5)

    def test_out_of_range_rejected(self):
        with pytest.raises(MemoryError_):
            make_memory(8).read_word(64)

    def test_vector_round_trip(self):
        mem = make_memory()
        values = np.arange(10, dtype=float)
        mem.write_vector(0, 2, values)
        assert np.array_equal(mem.read_vector(0, 2, 10), values)

    def test_negative_stride_vector(self):
        mem = make_memory()
        mem.load_array(0, np.arange(32, dtype=float))
        got = mem.read_vector(8 * 10, -1, 5)
        assert np.array_equal(got, [10, 9, 8, 7, 6])

    def test_vector_overrun_rejected(self):
        with pytest.raises(MemoryError_):
            make_memory(16).read_vector(0, 4, 10)

    def test_negative_stride_underrun_rejected(self):
        with pytest.raises(MemoryError_):
            make_memory(16).read_vector(8, -1, 5)

    @pytest.mark.parametrize("stride", [1, 3, -2, 0])
    def test_strided_read_matches_indexing(self, stride):
        mem = make_memory(64)
        mem.load_array(0, np.arange(64, dtype=float) + 0.5)
        start = 30
        expected = (np.arange(64) + 0.5)[start + stride * np.arange(6)]
        got = mem.read_vector(8 * start, stride, 6)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("stride", [1, 3, -2])
    def test_strided_write_touches_only_its_words(self, stride):
        mem = make_memory(64)
        values = np.arange(6, dtype=float) + 100.0
        mem.write_vector(8 * 30, stride, values)
        expected = np.zeros(64)
        expected[30 + stride * np.arange(6)] = values
        assert np.array_equal(mem.dump_array(0, 64), expected)

    def test_stride_zero_read_broadcasts(self):
        mem = make_memory(16)
        mem.write_word(8 * 5, 7.25)
        assert list(mem.read_vector(8 * 5, 0, 4)) == [7.25] * 4

    def test_stride_zero_write_keeps_the_last_value(self):
        mem = make_memory(16)
        mem.write_vector(8 * 5, 0, np.array([1.0, 2.0, 3.0]))
        assert mem.read_word(8 * 5) == 3.0
        assert mem.dump_array(0, 16).sum() == 3.0

    def test_read_vector_returns_a_copy(self):
        mem = make_memory(16)
        mem.load_array(0, np.arange(16, dtype=float))
        got = mem.read_vector(0, 1, 8)
        got[:] = -1.0
        assert list(mem.read_vector(0, 1, 8)) == list(range(8))

    @pytest.mark.parametrize("write", [False, True], ids=["read", "write"])
    @pytest.mark.parametrize(
        "start,stride,count",
        [
            (0, 4, 5),     # overrun past the high end
            (15, 1, 2),    # overrun by one word
            (8, -1, 10),   # underrun below word 0
            (4, -3, 3),    # underrun by a stride
            (16, 1, 1),    # first word already past the end
        ],
    )
    def test_out_of_bounds_access_rejected(self, write, start, stride,
                                           count):
        mem = make_memory(16)
        mem.load_array(0, np.arange(16, dtype=float))
        with pytest.raises(MemoryError_):
            if write:
                mem.write_vector(8 * start, stride, np.ones(count))
            else:
                mem.read_vector(8 * start, stride, count)
        assert list(mem.dump_array(0, 16)) == list(range(16))

    @pytest.mark.parametrize("write", [False, True], ids=["read", "write"])
    @pytest.mark.parametrize(
        "start,stride,count", [(0, 1, 16), (15, -1, 16), (0, 5, 4)]
    )
    def test_access_touching_both_ends_accepted(self, write, start,
                                                stride, count):
        mem = make_memory(16)
        if write:
            mem.write_vector(8 * start, stride, np.ones(count))
        else:
            assert len(mem.read_vector(8 * start, stride, count)) == count

    def test_load_and_dump_array(self):
        mem = make_memory()
        mem.load_array(10, np.array([1.0, 2.0, 3.0]))
        assert list(mem.dump_array(10, 3)) == [1.0, 2.0, 3.0]

    def test_load_array_bounds(self):
        with pytest.raises(MemoryError_):
            make_memory(4).load_array(2, np.zeros(8))


class TestBankRates:
    @pytest.mark.parametrize(
        "stride,rate",
        [
            (1, 1.0),
            (2, 1.0),
            (3, 1.0),
            (4, 1.0),
            (5, 1.0),
            (25, 1.0),
            (8, 2.0),     # revisits a bank every 4 accesses
            (16, 4.0),
            (32, 8.0),    # hammers one bank: full bank-busy time
            (64, 8.0),
            (0, 1.0),     # broadcast served from the bank buffer
            (-1, 1.0),
            (-8, 2.0),
        ],
    )
    def test_stream_rate(self, stride, rate):
        assert make_memory().stream_rate(stride) == rate

    def test_contention_scales_rate(self):
        loaded = MemorySystem(64, CFG.with_contention(1.5))
        assert loaded.stream_rate(1) == 1.5


class TestRefresh:
    def test_window_detection(self):
        mem = make_memory()
        assert mem.refresh_window_containing(401.0) == (400.0, 408.0)
        assert mem.refresh_window_containing(399.0) is None
        assert mem.refresh_window_containing(410.0) is None

    def test_scalar_access_stalled_out_of_window(self):
        mem = make_memory()
        assert mem.stall_scalar_access(402.0) == 408.0
        assert mem.stall_scalar_access(100.0) == 100.0

    def test_stream_stall_counts_boundaries(self):
        mem = make_memory()
        # Stream spanning one refresh boundary loses 8 cycles.
        assert mem.refresh_stall_for_stream(300.0, 500.0) == 8.0
        # Spanning two (after extension) boundaries loses 16.
        assert mem.refresh_stall_for_stream(300.0, 799.0) == 16.0
        # No boundary inside: no stall.
        assert mem.refresh_stall_for_stream(100.0, 300.0) == 0.0

    def test_stream_starting_inside_window_waits_it_out(self):
        mem = make_memory()
        # Starts during the 400-408 refresh (7 cycles left), and the
        # pushed-out end then crosses the 800 refresh too: 7 + 8.
        assert mem.refresh_stall_for_stream(401.0, 798.0) == 15.0

    def test_stall_extension_cascades(self):
        mem = make_memory()
        # Ends at 795; the first stall (from 400) pushes it past 800,
        # exposing a second refresh.
        assert mem.refresh_stall_for_stream(399.0, 795.0) == 16.0
        assert mem.refresh_stall_for_stream(399.0, 790.0) == 8.0

    def test_refresh_disabled(self):
        mem = MemorySystem(64, CFG.without_refresh())
        assert mem.refresh_stall_for_stream(0.0, 10_000.0) == 0.0
        assert mem.stall_scalar_access(402.0) == 402.0


class TestConfigValidation:
    def test_contention_below_one_rejected(self):
        with pytest.raises(MachineError):
            MachineConfig(memory_contention_factor=0.5)

    def test_refresh_must_exceed_duration(self):
        with pytest.raises(MachineError):
            MachineConfig(refresh_period=8, refresh_duration=8)

    def test_negative_size_rejected(self):
        with pytest.raises(MemoryError_):
            MemorySystem(-1, CFG)

    def test_clock_rate(self):
        assert CFG.clock_mhz == 25.0

    def test_effective_access_ns(self):
        assert CFG.with_contention(1.5).effective_access_ns() == 60.0

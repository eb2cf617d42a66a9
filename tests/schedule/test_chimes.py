"""Chime partitioning tests (paper §3.3 rules)."""

from dataclasses import FrozenInstanceError

import pytest

from repro.errors import ScheduleError
from repro.isa import parse_instruction as pi
from repro.schedule import (
    Chime,
    ChimeRules,
    REFRESH_FACTOR,
    partition_chimes,
)


def instructions(*lines):
    return [pi(line) for line in lines]


LFK1_BODY = instructions(
    "mov s0,VL",
    "ld.l zx+80(a5),v0",
    "mul.d v0,s1,v1",
    "ld.l zx+88(a5),v2",
    "mul.d v2,s3,v0",
    "add.d v1,v0,v3",
    "ld.l y+0(a5),v1",
    "mul.d v1,v3,v2",
    "add.d v2,s7,v0",
    "st.l v0,x+0(a5)",
    "add.w #1024,a5",
    "sub.w #128,s0",
    "lt.w #0,s0",
    "jbrs.t L7",
)


class TestLFK1Partition:
    def test_four_chimes(self):
        partition = partition_chimes(LFK1_BODY)
        assert len(partition) == 4

    def test_chime_contents(self):
        partition = partition_chimes(LFK1_BODY)
        sizes = [len(c) for c in partition.chimes]
        assert sizes == [2, 3, 3, 1]

    def test_paper_chime_cycles(self):
        """Paper §3.5: 131 + 132 + 132 + 132 = 527."""
        partition = partition_chimes(LFK1_BODY)
        from repro.isa.timing import default_timing_table

        timings = default_timing_table()
        cycles = [c.cycles(128, timings) for c in partition.chimes]
        assert cycles == [131.0, 132.0, 132.0, 132.0]

    def test_total_with_refresh(self):
        partition = partition_chimes(LFK1_BODY)
        assert partition.total_cycles(128) == pytest.approx(527 * 1.02)

    def test_cpl(self):
        partition = partition_chimes(LFK1_BODY)
        assert partition.cpl(128) == pytest.approx(4.19953125)

    def test_scalar_ops_masked(self):
        partition = partition_chimes(LFK1_BODY)
        assert partition.masked_scalar_ops == 5
        assert partition.vector_instructions() == 9


class TestPipeRule:
    def test_two_loads_split(self):
        body = instructions("ld.l a+0(a5),v0", "ld.l b+0(a5),v1")
        assert len(partition_chimes(body)) == 2

    def test_three_pipes_share(self):
        body = instructions(
            "ld.l a+0(a5),v0",
            "add.d v0,v1,v2",
            "mul.d v2,v3,v5",
        )
        assert len(partition_chimes(body)) == 1

    def test_two_adds_split(self):
        body = instructions("add.d v0,v1,v2", "add.d v2,v3,v5")
        assert len(partition_chimes(body)) == 2


class TestRegisterPairRule:
    def test_excess_reads_split(self):
        """Paper's example: three reads of the {v2,v6} pair."""
        body = instructions("add.d v2,v6,v6", "mul.d v6,v1,v4")
        partition = partition_chimes(body)
        assert len(partition) == 2

    def test_excess_writes_split(self):
        """Paper's example: two writes to the {v2,v6} pair."""
        body = instructions("add.d v1,v0,v2", "mul.d v2,v1,v6")
        partition = partition_chimes(body)
        assert len(partition) == 2

    def test_two_reads_one_write_allowed(self):
        body = instructions("add.d v0,v1,v2", "mul.d v3,v5,v6")
        # v2/v6 pair: one write each... v2 write + v6 write: 2 writes to
        # pair 2 -> split.
        assert len(partition_chimes(body)) == 2

    def test_rule_can_be_disabled(self):
        body = instructions("add.d v2,v6,v6", "mul.d v6,v1,v4")
        relaxed = ChimeRules(enforce_register_pairs=False)
        assert len(partition_chimes(body, relaxed)) == 1


class TestScalarMemoryRule:
    def test_scalar_load_terminates_memory_chime(self):
        body = instructions(
            "ld.l a+0(a5),v0",
            "mul.d v0,s1,v1",
            "ld.l c+0(a0),s2",
            "add.d v1,s2,v2",
        )
        partition = partition_chimes(body)
        assert partition.scalar_memory_splits == 1
        assert len(partition) == 2

    def test_fp_only_chime_spans_scalar_memory(self):
        """The LFK8 asymmetry: t_f'' chimes ignore scalar loads."""
        body = instructions(
            "mul.d v0,s1,v1",
            "ld.l c+0(a0),s2",
            "add.d v1,s2,v2",
        )
        partition = partition_chimes(body)
        assert len(partition) == 1
        assert partition.scalar_memory_splits == 0

    def test_vector_memory_after_scalar_memory_splits(self):
        body = instructions(
            "mul.d v0,s1,v1",
            "ld.l c+0(a0),s2",
            "ld.l a+0(a5),v2",
        )
        partition = partition_chimes(body)
        assert len(partition) == 2

    def test_rule_can_be_disabled(self):
        body = instructions(
            "ld.l a+0(a5),v0",
            "ld.l c+0(a0),s2",
            "add.d v0,s2,v2",
        )
        relaxed = ChimeRules(scalar_memory_splits=False)
        assert len(partition_chimes(body, relaxed)) == 1


class TestCosts:
    def test_reduction_chime_rate(self):
        """A chime with sum.d costs 1.35 * VL (Table 1's Z)."""
        body = instructions("ld.l a+0(a5),v0", "sum.d v0,s1")
        partition = partition_chimes(body)
        from repro.isa.timing import default_timing_table

        cycles = partition.chimes[0].cycles(
            128, default_timing_table()
        )
        assert cycles == pytest.approx(1.35 * 128 + 2)  # B: ld=2, sum=0

    def test_empty_chime_rejected(self):
        from repro.isa.timing import default_timing_table

        with pytest.raises(ScheduleError):
            Chime([]).cycles(128, default_timing_table())

    def test_refresh_applies_only_to_long_memory_runs(self):
        # 2 memory chimes + 2 fp-only chimes: no run of 4.
        body = instructions(
            "ld.l a+0(a5),v0",
            "add.d v0,v1,v2",   # joins the load chime
            "add.d v2,v3,v5",   # new chime (add pipe busy)
            "mul.d v5,v3,v1",   # joins
            "neg.d v1,v3",      # new chime
        )
        partition = partition_chimes(body)
        no_refresh = partition.total_cycles(128, refresh=False)
        with_refresh = partition.total_cycles(128, refresh=True)
        assert with_refresh == no_refresh

    def test_all_memory_chimes_always_refreshed(self):
        """The loop repeats: 2 memory chimes form an unbounded run."""
        body = instructions("ld.l a+0(a5),v0", "ld.l b+0(a5),v1")
        partition = partition_chimes(body)
        assert partition.total_cycles(128) == pytest.approx(
            (130 + 130) * REFRESH_FACTOR
        )

    def test_circular_run_detection(self):
        # memory, fp, memory, memory, memory: circular run of 4
        # (3 at the end + 1 at the start).
        body = instructions(
            "ld.l a+0(a5),v0",
            "add.d v0,v1,v2",
            "add.d v2,v3,v5",   # fp-only chime
            "ld.l b+0(a5),v1",
            "ld.l c+0(a5),v3",
            "st.l v2,d+0(a5)",
        )
        partition = partition_chimes(body)
        flags = [c.has_memory_op for c in partition.chimes]
        assert flags == [True, False, True, True, True]
        with_refresh = partition.total_cycles(128)
        no_refresh = partition.total_cycles(128, refresh=False)
        # The 4 memory chimes picked up the 2% factor, the fp one not.
        memory_cycles = sum(
            c.cycles(128, None if False else __import__(
                "repro.isa.timing", fromlist=["default_timing_table"]
            ).default_timing_table())
            for c in partition.chimes if c.has_memory_op
        )
        assert with_refresh == pytest.approx(
            no_refresh + memory_cycles * (REFRESH_FACTOR - 1.0)
        )


class TestImmutability:
    """Partitions are shared between callers, so they cannot change."""

    def test_fields_cannot_be_set(self):
        partition = partition_chimes(LFK1_BODY)
        with pytest.raises(FrozenInstanceError):
            partition.scalar_memory_splits = 1
        with pytest.raises(FrozenInstanceError):
            partition.chimes = ()
        chime = partition.chimes[0]
        with pytest.raises(FrozenInstanceError):
            chime.split_by_scalar_memory = True
        with pytest.raises(FrozenInstanceError):
            chime.instructions = ()

    def test_sequences_are_tuples(self):
        partition = partition_chimes(LFK1_BODY)
        assert isinstance(partition.chimes, tuple)
        for chime in partition.chimes:
            assert isinstance(chime.instructions, tuple)
            assert isinstance(chime.timing_keys, tuple)

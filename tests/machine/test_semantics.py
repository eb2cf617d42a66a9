"""Functional (value-level) instruction semantics tests: each
instruction is decoded, lowered onto a register file and memory, and
its step applied once."""

import numpy as np
import pytest

from repro.isa import (
    Immediate,
    Instruction,
    LabelRef,
    MemRef,
    areg,
    sreg,
    vreg,
    VL,
)
from repro.isa.program import DataLayout
from repro.machine import MachineConfig, MemorySystem, RegisterFile
from repro.machine.semantics import decode_instruction, lower_step


@pytest.fixture
def env():
    layout = DataLayout()
    layout.allocate("x", 64)
    memory = MemorySystem(64, MachineConfig())
    regfile = RegisterFile()
    return regfile, memory, layout


def lowered(instr, env, target_pc=-1):
    regfile, memory, layout = env
    d = decode_instruction(instr, layout, target_pc)
    return d, lower_step(d, regfile, memory)


def run(instr, env):
    """Apply ``instr`` once; returns whether it branched."""
    _, step = lowered(instr, env)
    return step()


class TestScalarOps:
    def test_mov_immediate(self, env):
        regfile, *_ = env
        run(Instruction("mov", (Immediate(42), sreg(0)), suffix="w"), env)
        assert regfile.s[0] == 42.0

    def test_mov_to_vl_clamps(self, env):
        regfile, *_ = env
        run(Instruction("mov", (Immediate(500), VL), suffix="w"), env)
        assert regfile.vl == 128
        run(Instruction("mov", (Immediate(-3), VL), suffix="w"), env)
        assert regfile.vl == 0

    def test_accumulate_add(self, env):
        regfile, *_ = env
        regfile.a[5] = 100
        run(Instruction("add", (Immediate(24), areg(5)), suffix="w"), env)
        assert regfile.a[5] == 124

    def test_accumulate_sub_order(self, env):
        regfile, *_ = env
        regfile.s[0] = 10.0
        run(Instruction("sub", (Immediate(3), sreg(0)), suffix="w"), env)
        assert regfile.s[0] == 7.0  # dst := dst - src

    def test_accumulate_div_order(self, env):
        regfile, *_ = env
        regfile.s[0] = 12.0
        run(Instruction("div", (Immediate(4), sreg(0)), suffix="d"), env)
        assert regfile.s[0] == 3.0

    def test_integer_division_truncates(self, env):
        regfile, *_ = env
        regfile.a[1] = 101
        run(Instruction("div", (Immediate(2), areg(1)), suffix="w"), env)
        assert regfile.a[1] == 50

    def test_three_operand_sub(self, env):
        regfile, *_ = env
        regfile.s[1] = 10.0
        regfile.s[2] = 4.0
        run(
            Instruction("sub", (sreg(1), sreg(2), sreg(3)), suffix="d"),
            env,
        )
        assert regfile.s[3] == 6.0

    def test_scalar_neg(self, env):
        regfile, *_ = env
        regfile.s[1] = 2.5
        run(Instruction("neg", (sreg(1), sreg(2)), suffix="d"), env)
        assert regfile.s[2] == -2.5


class TestCompareBranch:
    def test_lt_sets_flag(self, env):
        regfile, *_ = env
        regfile.s[0] = 5.0
        run(Instruction("lt", (Immediate(0), sreg(0)), suffix="w"), env)
        assert regfile.flag is True
        run(Instruction("lt", (sreg(0), Immediate(0)), suffix="w"), env)
        assert regfile.flag is False

    def test_branch_senses(self, env):
        regfile, *_ = env
        regfile.flag = True
        d, step = lowered(
            Instruction("jbrs", (LabelRef("L"),), suffix="t"), env,
            target_pc=5,
        )
        assert step() is True
        assert d.target_pc == 5
        not_taken = run(
            Instruction("jbrs", (LabelRef("L"),), suffix="f"), env
        )
        assert not_taken is False

    def test_unconditional_jump(self, env):
        d, step = lowered(
            Instruction("jbr", (LabelRef("X"),)), env, target_pc=3
        )
        assert step() is True
        assert d.target_pc == 3


class TestMemoryOps:
    def test_scalar_load_store(self, env):
        regfile, memory, layout = env
        memory.write_word(16, 9.0)
        run(
            Instruction(
                "ld", (MemRef(areg(0), 16), sreg(2)), suffix="l"
            ),
            env,
        )
        assert regfile.s[2] == 9.0
        run(
            Instruction(
                "st", (sreg(2), MemRef(areg(0), 24)), suffix="l"
            ),
            env,
        )
        assert memory.read_word(24) == 9.0

    def test_symbol_resolution(self, env):
        mem = MemRef(areg(0), 8, "x")
        d, _ = lowered(Instruction("ld", (mem, sreg(1)), suffix="l"), env)
        assert d.offset == 8

    def test_vector_load_uses_vl(self, env):
        regfile, memory, layout = env
        memory.load_array(0, np.arange(64, dtype=float))
        regfile.vl = 4
        run(Instruction("ld", (MemRef(areg(0)), vreg(0)), suffix="l"),
            env)
        assert list(regfile.v[0, :regfile.vl]) == [0, 1, 2, 3]

    def test_strided_vector_store(self, env):
        regfile, memory, layout = env
        regfile.vl = 3
        regfile.v[1, :regfile.vl] = np.array([7.0, 8.0, 9.0])
        run(
            Instruction(
                "st",
                (vreg(1), MemRef(areg(0), 0, None, 2)),
                suffix="l",
            ),
            env,
        )
        assert memory.read_word(0) == 7.0
        assert memory.read_word(16) == 8.0
        assert memory.read_word(32) == 9.0


class TestVectorArithmetic:
    def test_vector_add(self, env):
        regfile, *_ = env
        regfile.vl = 4
        regfile.v[0, :regfile.vl] = np.array([1.0, 2, 3, 4])
        regfile.v[1, :regfile.vl] = np.array([10.0, 20, 30, 40])
        run(Instruction("add", (vreg(0), vreg(1), vreg(2)), suffix="d"),
            env)
        assert list(regfile.v[2, :regfile.vl]) == [11, 22, 33, 44]

    def test_vector_scalar_broadcast(self, env):
        regfile, *_ = env
        regfile.vl = 3
        regfile.s[1] = 2.0
        regfile.v[0, :regfile.vl] = np.array([1.0, 2, 3])
        run(Instruction("mul", (sreg(1), vreg(0), vreg(2)), suffix="d"),
            env)
        assert list(regfile.v[2, :regfile.vl]) == [2, 4, 6]

    def test_vector_neg(self, env):
        regfile, *_ = env
        regfile.vl = 2
        regfile.v[0, :regfile.vl] = np.array([1.0, -2.0])
        run(Instruction("neg", (vreg(0), vreg(3)), suffix="d"), env)
        assert list(regfile.v[3, :regfile.vl]) == [-1.0, 2.0]

    def test_sum_reduction(self, env):
        regfile, *_ = env
        regfile.vl = 5
        regfile.v[0, :regfile.vl] = np.arange(5, dtype=float)
        run(Instruction("sum", (vreg(0), sreg(3)), suffix="d"), env)
        assert regfile.s[3] == 10.0

    def test_sum_respects_vl(self, env):
        regfile, *_ = env
        regfile.vl = 128
        regfile.v[0, :regfile.vl] = np.ones(128)
        regfile.vl = 3
        run(Instruction("sum", (vreg(0), sreg(3)), suffix="d"), env)
        assert regfile.s[3] == 3.0


class TestRegisterFile:
    def test_prime_vectors_distinct_nonzero(self):
        regfile = RegisterFile()
        regfile.prime_vectors()
        values = {regfile.v[i, 0] for i in range(8)}
        assert len(values) == 8
        assert all(v != 0 for v in values)

"""RegisterFile state tests: what the lowered steps store in it."""

import numpy as np

from repro.isa import VL, VS, Immediate, Instruction, MemRef, areg, sreg, vreg
from repro.isa.program import DataLayout
from repro.machine import MachineConfig, MemorySystem, RegisterFile
from repro.machine.semantics import decode_instruction, lower_step


def step(regfile, instr, memory=None):
    """Decode ``instr``, lower it onto ``regfile`` and apply it once."""
    if memory is None:
        memory = MemorySystem(64, MachineConfig())
    lower_step(decode_instruction(instr, DataLayout()), regfile, memory)()


def mov(regfile, src, dest):
    step(regfile, Instruction("mov", (src, dest), suffix="w"))


class TestScalarAccess:
    def test_address_registers_integer(self):
        regfile = RegisterFile()
        regfile.s[1] = 1024.7
        mov(regfile, sreg(1), areg(3))
        assert regfile.a[3] == 1024
        mov(regfile, areg(3), sreg(2))
        assert regfile.s[2] == 1024.0

    def test_scalar_registers_float(self):
        regfile = RegisterFile()
        mov(regfile, Immediate(2.5), sreg(2))
        assert regfile.s[2] == 2.5

    def test_vl_clamping(self):
        regfile = RegisterFile()
        mov(regfile, Immediate(1000), VL)
        assert regfile.vl == 128
        mov(regfile, Immediate(-5), VL)
        assert regfile.vl == 0
        mov(regfile, Immediate(37), VL)
        mov(regfile, VL, sreg(1))
        assert regfile.s[1] == 37.0

    def test_custom_max_vl(self):
        regfile = RegisterFile(max_vl=64)
        mov(regfile, Immediate(128), VL)
        assert regfile.vl == 64

    def test_vs_register(self):
        regfile = RegisterFile()
        mov(regfile, Immediate(25), VS)
        mov(regfile, VS, areg(1))
        assert regfile.vs == 25 and regfile.a[1] == 25


class TestVectorAccess:
    def test_read_write_respect_vl(self):
        regfile = RegisterFile()
        memory = MemorySystem(64, MachineConfig())
        memory.load_array(0, np.array([1.0, 2.0, 3.0, 4.0]))
        regfile.vl = 3
        step(regfile, Instruction("ld", (MemRef(areg(0)), vreg(1)),
                                  suffix="l"), memory)
        assert list(regfile.v[1, :3]) == [1.0, 2.0, 3.0]
        assert regfile.v[1, 3] == 0.0

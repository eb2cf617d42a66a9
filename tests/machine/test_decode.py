"""Decode is the machine's one classification of instruction forms.

Every form it accepts has a lowered step (and, for a vector form, a
Table 1 timing entry); every other form is refused with a
``SimulationError`` before a run starts.
"""

import itertools

import pytest

from repro.analysis.staticpred import predict_program
from repro.errors import IsaError, SimulationError
from repro.isa import (
    VL,
    VM,
    VS,
    Immediate,
    Instruction,
    LabelRef,
    MemRef,
    areg,
    parse_program,
    sreg,
    vreg,
)
from repro.isa.instructions import known_mnemonics
from repro.isa.program import DataLayout
from repro.machine import DEFAULT_CONFIG, MemorySystem, RegisterFile, Simulator
from repro.machine import semantics

#: One reachable unsupported instruction per failure class, plus one
#: that control never reaches.
UNSUPPORTED = {
    "ld-into-immediate": "ld.l 8(a2),#3",
    "ld-into-label": "ld.l 8(a2),L",
    "ld-into-vm": "ld.l 8(a2),VM",
    "st-from-immediate": "st.l #3,8(a2)",
    "alu-memory-operand": "add.l 8(a2),s1,s2",
    "alu-label-operand": "add.l L,s1,s2",
    "alu-immediate-destination": "add.l s1,s2,#3",
    "neg-mixes-vector-and-scalar": "neg.l v1,s1",
    "sum-into-vector": "sum.l v1,v2",
    "mov-into-immediate": "mov.l s1,#3",
    "mov-vector-to-scalar": "mov.l v1,s2",
    "mov-scalar-to-vector": "mov.l s1,v2",
    "mov-vector-to-vector": "mov.l v1,v2",
    "lt-vector-scalar": "lt.l v1,s1",
    "compare-reads-vm": "lt.l VM,s1",
    "unreachable-behind-jbr": "jbr L\nmov.l s1,#3\nL: mov #0,s0",
}


def unsupported_program(body):
    lines = "".join(f"        {line}\n" for line in body.splitlines())
    return parse_program(f".data x, 16\n{lines}", name="unsupported")


@pytest.mark.parametrize(
    "body", list(UNSUPPORTED.values()), ids=list(UNSUPPORTED)
)
def test_simulator_refuses(body):
    with pytest.raises(SimulationError):
        Simulator(unsupported_program(body)).run()


@pytest.mark.parametrize(
    "body", list(UNSUPPORTED.values()), ids=list(UNSUPPORTED)
)
def test_static_prediction_refuses(body):
    with pytest.raises(SimulationError):
        predict_program(unsupported_program(body), DEFAULT_CONFIG)


#: Int and float immediates, a/s/v registers (two vector ones), VL, VS,
#: VM, plain and symbolic memory references, and a label.
ALPHABET = (
    Immediate(3), Immediate(2.5), areg(1), sreg(1), vreg(1), vreg(2),
    VL, VS, VM, MemRef(areg(2), 8), MemRef(areg(2), 8, "x"),
    LabelRef("L"),
)

LOWERED_TAGS = {
    semantics.T_LD_V, semantics.T_LD_S, semantics.T_ST_V,
    semantics.T_ST_S, semantics.T_ALU, semantics.T_NEG_V,
    semantics.T_NEG_S, semantics.T_SUM, semantics.T_MOV,
    semantics.T_CMP, semantics.T_BR, semantics.T_BRS,
}


def every_form():
    """Every 1-3 operand instruction the ISA builds from the alphabet."""
    for mnemonic in known_mnemonics():
        for count in (1, 2, 3):
            for operands in itertools.product(ALPHABET, repeat=count):
                try:
                    yield Instruction(mnemonic, operands)
                except IsaError:
                    continue  # an operand shape the ISA itself rejects


def test_decode_is_total():
    layout = DataLayout()
    layout.allocate("x", 16)
    regfile = RegisterFile()
    memory = MemorySystem(layout.total_words, DEFAULT_CONFIG)
    decoded = refused = 0
    for instr in every_form():
        try:
            d = semantics.decode_instruction(instr, layout, target_pc=0)
        except SimulationError as exc:
            assert str(instr) in str(exc)
            refused += 1
            continue
        assert d.tag in LOWERED_TAGS, instr
        assert callable(semantics.lower_step(d, regfile, memory)), instr
        if d.is_vector:
            DEFAULT_CONFIG.timings.lookup(d.timing_key)
        decoded += 1
    # Changes only when a form gains or loses support.
    assert (decoded, refused) == (1908, 6486)

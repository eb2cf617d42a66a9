"""End-to-end simulator tests on small hand-written programs."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.isa import parse_program
from repro.machine import Simulator, run_program

VECTOR_TRIAD = """
.data   a, 512
.data   b, 512
.data   c, 512
        mov     #0,a0
        mov     #300,s0
        mov     #0,a5
L1:     mov     s0,VL
        ld.l    a+0(a5),v0
        ld.l    b+0(a5),v1
        mul.d   v0,v1,v2
        st.l    v2,c+0(a5)
        add.w   #1024,a5
        sub.w   #128,s0
        lt.w    #0,s0
        jbrs.t  L1
"""


class TestFunctionalExecution:
    def test_triad_values(self):
        program = parse_program(VECTOR_TRIAD, name="triad")
        sim = Simulator(program)
        a = np.linspace(1.0, 2.0, 300)
        b = np.linspace(3.0, 4.0, 300)
        sim.load_symbol("a", a)
        sim.load_symbol("b", b)
        result = sim.run()
        assert np.allclose(sim.dump_symbol("c", 300), a * b)
        assert result.flops == 300

    def test_partial_strip_handled(self):
        """300 = 2 full strips + one 44-element strip."""
        program = parse_program(VECTOR_TRIAD)
        sim = Simulator(program)
        sim.load_symbol("a", np.ones(300))
        sim.load_symbol("b", np.full(300, 2.0))
        sim.run()
        c = sim.dump_symbol("c", 300)
        assert np.all(c == 2.0)

    def test_counters(self):
        program = parse_program(VECTOR_TRIAD)
        sim = Simulator(program)
        sim.load_symbol("a", np.ones(300))
        sim.load_symbol("b", np.ones(300))
        result = sim.run()
        assert result.vector_instructions == 4 * 3  # 3 strips
        assert result.vector_memory_ops == 3 * 3
        assert result.scalar_memory_ops == 0
        assert result.instructions_executed == 3 + 9 * 3

    def test_run_program_convenience(self):
        result = run_program(
            parse_program(VECTOR_TRIAD),
            initial_data={"a": np.ones(300), "b": np.ones(300)},
        )
        assert result.cycles > 0

    def test_load_symbol_overflow_rejected(self):
        sim = Simulator(parse_program(VECTOR_TRIAD))
        with pytest.raises(SimulationError):
            sim.load_symbol("a", np.zeros(1024))

    def test_mflops_property(self):
        result = run_program(
            parse_program(VECTOR_TRIAD),
            initial_data={"a": np.ones(300), "b": np.ones(300)},
        )
        # 300 flops in `cycles` 40ns cycles.
        expected = 300 / (result.cycles * 40e-9) / 1e6
        assert result.mflops == pytest.approx(expected)

    def test_cycles_per_flop(self):
        result = run_program(
            parse_program(VECTOR_TRIAD),
            initial_data={"a": np.ones(300), "b": np.ones(300)},
        )
        assert result.cycles_per_flop() == pytest.approx(
            result.cycles / 300
        )


class TestTimingSanity:
    def test_cycles_scale_with_work(self):
        short = VECTOR_TRIAD.replace("#300", "#128")
        long = VECTOR_TRIAD.replace("#300", "#1280")
        r_short = run_program(
            parse_program(short),
            initial_data={"a": np.ones(512), "b": np.ones(512)},
        )
        r_long = run_program(
            parse_program(long.replace(".data   a, 512", ".data   a, 1280")
                          .replace(".data   b, 512", ".data   b, 1280")
                          .replace(".data   c, 512", ".data   c, 1280")),
            initial_data={"a": np.ones(1280), "b": np.ones(1280)},
        )
        ratio = r_long.cycles / r_short.cycles
        assert 8.0 < ratio < 12.0  # ~10 strips vs 1

    def test_trace_recorded_only_on_request(self):
        program = parse_program(VECTOR_TRIAD)
        sim = Simulator(program)
        sim.load_symbol("a", np.ones(300))
        sim.load_symbol("b", np.ones(300))
        assert sim.run().trace == []

    def test_memory_bound_loop_near_port_limit(self):
        """Three memory streams of 300 elements need >= 900 cycles."""
        result = run_program(
            parse_program(VECTOR_TRIAD),
            initial_data={"a": np.ones(300), "b": np.ones(300)},
        )
        assert result.cycles >= 900
        assert result.cycles < 1300  # but within ~40% of the port bound


#: (program, faulting pc, the exception the faulting step raised)
FAULTS = {
    "scalar-divide-by-zero": (
        "mov.l #0,s1\nmov.l #3,s2\ndiv.d s1,s2", 2, ZeroDivisionError,
    ),
    "address-divide-by-zero": (
        "mov.l #0,a1\nmov.l #3,a2\ndiv.w a1,a2", 2, ZeroDivisionError,
    ),
    # v1 is all zeros: 0/0 leaves NaN in element 0
    "nan-into-vl": ("mov.l #0,VS\ndiv.l v1,VS,VL", 1, ValueError),
    "inf-into-vl": (
        "mov.l #1,s1\nadd.d v0,s1,v1\nmov.l #0,VS\ndiv.l v1,VS,VL",
        3, OverflowError,
    ),
}


class TestFaults:
    """A faulting instruction surfaces as a typed SimulationError that
    names its pc and chains the original exception."""

    @pytest.mark.parametrize("case", sorted(FAULTS))
    def test_simulator_run(self, case):
        text, pc, cause = FAULTS[case]
        with pytest.raises(SimulationError, match=f"pc {pc}:") as info:
            Simulator(parse_program(text)).run()
        assert isinstance(info.value.__cause__, cause)

    @pytest.mark.parametrize("case", sorted(FAULTS))
    def test_run_program(self, case):
        text, pc, cause = FAULTS[case]
        with pytest.raises(SimulationError, match=f"pc {pc}:") as info:
            run_program(parse_program(text))
        assert isinstance(info.value.__cause__, cause)

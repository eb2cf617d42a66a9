"""Figure 2: chaining with tailgating in the function unit pipelines.

Reconstructs the paper's worked example: a chime of three chained
instructions (``ld.l`` → ``add.d`` → ``mul.d``, VL = 128) followed by
an identical second chime.  The paper's numbers: 422 cycles without
chaining, 162 with (166 counting bubbles), and an asymptotic
steady-state chime of ``VL + sum(B) = 132`` cycles.
"""

from __future__ import annotations

from ..isa import AsmBuilder, Immediate, areg, vreg
from ..isa.timing import default_timing_table
from ..machine import MachineConfig, Simulator, render_timeline
from .formatting import ExperimentResult


def _build_chimes(copies: int):
    b = AsmBuilder(f"figure2-{copies}")
    data = b.data("arr", 8192)
    b.mov(Immediate(0), areg(0))
    b.mov(Immediate(0), areg(5))
    b.set_vl(Immediate(128))
    for i in range(copies):
        b.vload(b.mem(data, areg(5)), vreg(0), comment=f"chime {i + 1}")
        b.vadd(vreg(0), vreg(1), vreg(2))
        b.vmul(vreg(2), vreg(3), vreg(5))
        b.add_imm(1024, areg(5))
    return b.build()


def run_figure2(config: MachineConfig | None = None) -> ExperimentResult:
    if config is None:
        config = MachineConfig().without_refresh()
    timings = default_timing_table()
    unchained = sum(
        timings.lookup(key).isolated_cycles(128)
        for key in ("load", "add", "mul")
    )

    sim = Simulator(_build_chimes(6), config)
    result = sim.run(record_trace=True)
    vector_entries = [t for t in result.trace if t.pipe is not None]
    first_chime = vector_entries[2].complete - vector_entries[0].dispatch
    chime_ends = [
        vector_entries[3 * i + 2].complete for i in range(6)
    ]
    steady_deltas = [
        b - a for a, b in zip(chime_ends[2:], chime_ends[3:])
    ]
    steady = sum(steady_deltas) / len(steady_deltas)

    timeline = render_timeline(vector_entries[:9], width=68)
    body = "\n".join(
        [
            f"three chained instructions, unchained total: "
            f"{unchained:.0f} cycles (paper: 422)",
            f"first chime (chained, with bubbles): {first_chime:.0f} "
            "cycles (paper: 162 ideal / 166 with bubbles)",
            f"steady-state chime: {steady:.1f} cycles "
            "(paper: VL + sum(B) = 132)",
            "",
            timeline,
        ]
    )
    return ExperimentResult(
        artifact="Figure 2",
        title="Chaining with perfect tailgating in the function pipes",
        body=body,
        data={
            "unchained_cycles": unchained,
            "first_chime_cycles": first_chime,
            "steady_chime_cycles": steady,
        },
    )

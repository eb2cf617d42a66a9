"""§3.5 worked example: the MACS bound of LFK1, chime by chime.

The paper walks LFK1's four chimes: 131 + 132 + 132 + 132 = 527
cycles, ×1.02 refresh = 537.54, /128 = 4.200 CPL = 0.840 CPF, against
a measured 0.852 CPF.
"""

from __future__ import annotations

from ..isa.printer import format_instruction
from ..isa.timing import default_timing_table
from ..model import macs_bound
from ..model.macs import inner_loop_body
from ..schedule import REFRESH_FACTOR, partition_chimes
from ..workloads import kernel, compile_spec, run_kernel
from .formatting import ExperimentResult


def run_walkthrough() -> ExperimentResult:
    spec = kernel("lfk1")
    compiled = compile_spec(spec)
    timings = default_timing_table()
    body = inner_loop_body(compiled.program)
    partition = partition_chimes(body)
    lines = ["compiled inner loop:"]
    lines.extend("  " + format_instruction(i) for i in body)
    lines.append("")
    total = 0.0
    for index, chime in enumerate(partition.chimes, start=1):
        cycles = chime.cycles(128, timings)
        total += cycles
        names = ", ".join(i.name for i in chime.instructions)
        lines.append(
            f"chime {index}: [{names}] = {cycles:.0f} cycles"
        )
    with_refresh = total * REFRESH_FACTOR
    bound = macs_bound(compiled.program)
    run = run_kernel(spec)
    lines.extend(
        [
            "",
            f"sum of chimes: {total:.0f} cycles (paper: 527)",
            f"with refresh x{REFRESH_FACTOR}: {with_refresh:.2f} "
            "(paper: 537.54)",
            f"t_MACS = {bound.cpl:.3f} CPL = "
            f"{bound.cpl / spec.flops_per_iteration:.3f} CPF "
            "(paper: 4.200 CPL = 0.840 CPF)",
            f"measured: {run.cpl():.3f} CPL = {run.cpf():.3f} CPF "
            "(paper: 0.852 CPF)",
        ]
    )
    return ExperimentResult(
        artifact="Section 3.5",
        title="LFK1 walkthrough: calculating the MACS bound",
        body="\n".join(lines),
        data={
            "chime_cycles": [
                c.cycles(128, timings) for c in partition.chimes
            ],
            "total": total,
            "with_refresh": with_refresh,
            "t_macs_cpl": bound.cpl,
            "measured_cpl": run.cpl(),
        },
    )

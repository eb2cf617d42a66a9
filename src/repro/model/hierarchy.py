"""The full MACS hierarchy for one kernel (paper Figure 1, §4).

:func:`analyze_kernel` assembles, for a kernel:

* the **MA** bound from source analysis,
* the **MAC** bound from the compiled inner loop,
* the **MACS** bound from the chime partition of the schedule,
* the ``t_f''`` / ``t_m''`` decompositions,
* **measured** ``t_p`` (full code), ``t_a`` and ``t_x`` (A/X codes),

all in both CPL and CPF, plus the gap attribution of §4.4: how much
run time the compiler's added work explains (MA→MAC), how much the
schedule explains (MAC→MACS), and what remains unmodeled
(MACS→actual).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..compiler import CompiledKernel, CompilerOptions, DEFAULT_OPTIONS
from ..errors import ModelError
from ..isa.timing import TimingTable
from ..machine import DEFAULT_CONFIG, MachineConfig
from ..schedule.chimes import ChimeRules, refresh_factor_for
from ..units import harmonic_mean_mflops, percent_of_bound
from ..workloads.lfk import KernelSpec, kernel
from ..workloads.runner import compile_spec, run_kernel
from .ax import AXMeasurement, measure_ax
from .bounds import BoundsRow, ma_bound, mac_bound
from .counts import ma_counts, mac_counts
from .macs import MacsBound, inner_loop_body, macs_bound, macs_f_bound, macs_m_bound


@dataclass
class KernelAnalysis:
    """Bounds, measurements and gaps for one kernel."""

    spec: KernelSpec
    compiled: CompiledKernel
    ma: BoundsRow
    mac: BoundsRow
    macs: MacsBound
    macs_f: MacsBound
    macs_m: MacsBound
    #: measured whole-code time, CPL per source iteration (None when
    #: measurement was skipped)
    t_p_cpl: float | None = None
    ax: AXMeasurement | None = None

    # -- unit helpers ---------------------------------------------------

    @property
    def flops(self) -> int:
        return self.spec.flops_per_iteration

    def to_cpf(self, cpl: float) -> float:
        return cpl / self.flops

    @property
    def t_ma_cpl(self) -> float:
        return self.ma.cpl

    @property
    def t_mac_cpl(self) -> float:
        return self.mac.cpl

    @property
    def t_macs_cpl(self) -> float:
        return self.macs.cpl

    # -- gap attribution (§4.2, §4.4) ------------------------------------

    def percent_explained(self, level: str) -> float:
        """``bound / measured * 100`` for 'ma' | 'mac' | 'macs'."""
        if self.t_p_cpl is None:
            raise ModelError("kernel was analyzed without measurement")
        bound = {
            "ma": self.ma.cpl,
            "mac": self.mac.cpl,
            "macs": self.macs.cpl,
        }[level]
        return percent_of_bound(bound, self.t_p_cpl)

    def compiler_gap_cpl(self) -> float:
        """MA→MAC: run time from compiler-inserted operations."""
        return self.mac.cpl - self.ma.cpl

    def schedule_gap_cpl(self) -> float:
        """MAC→MACS: run time from the specific instruction schedule."""
        return self.macs.cpl - self.mac.cpl

    def unmodeled_gap_cpl(self) -> float:
        """MACS→actual: effects outside the model."""
        if self.t_p_cpl is None:
            raise ModelError("kernel was analyzed without measurement")
        return self.t_p_cpl - self.macs.cpl

    def diagnose(self) -> list[str]:
        """Plain-language gap diagnosis in the style of §4.4."""
        notes: list[str] = []
        if self.compiler_gap_cpl() > 0.01:
            extra = self.mac.counts.memory_ops - self.ma.counts.memory_ops
            if extra > 0:
                notes.append(
                    f"compiler inserted {extra} extra memory reference(s) "
                    "per iteration (shifted-stream reloads / spills): "
                    "MA -> MAC gap"
                )
            else:
                notes.append("compiler added non-memory work: MA -> MAC gap")
        split_count = self.macs.partition.scalar_memory_splits
        if split_count:
            notes.append(
                f"{split_count} scalar memory reference(s) split chimes; "
                "t_MACS exceeds max(t_f'', t_m'') (the LFK8 effect)"
            )
        if (self.macs_f.cpl - self.mac.counts.t_f) > 1.0:
            notes.append(
                "vector adds and multiplies do not overlap perfectly "
                "(t_f'' - t_f' > 1, the LFK7 ninth-chime effect)"
            )
        if self.t_p_cpl is not None and self.ax is not None:
            floor = self.ax.overlap_lower_bound()
            if self.t_p_cpl > 1.1 * floor:
                notes.append(
                    "t_p >> MAX(t_a, t_x): access and execute processes "
                    "overlap poorly"
                )
            elif self.ax.t_a_cpl >= self.ax.t_x_cpl:
                notes.append("performance is bottlenecked on memory access")
            else:
                notes.append(
                    "performance is bottlenecked on floating point execution"
                )
        if self.t_p_cpl is not None:
            if self.percent_explained("macs") >= 90.0:
                notes.append(
                    "MACS explains >= 90% of measured run time"
                )
            else:
                notes.append(
                    "large MACS -> actual gap: unmodeled effects dominate "
                    "(short vectors / outer-loop overhead / scalar code)"
                )
        return notes

    # -- rendering --------------------------------------------------------

    def report(self) -> str:
        lines = [
            f"MACS hierarchy for {self.spec.name.upper()} "
            f"({self.spec.title})",
            "",
            f"  {'level':<10}{'t_f':>8}{'t_m':>8}{'CPL':>9}{'CPF':>9}",
        ]

        def row(label, t_f, t_m, cpl):
            t_f_text = f"{t_f:8.2f}" if t_f is not None else " " * 8
            t_m_text = f"{t_m:8.2f}" if t_m is not None else " " * 8
            lines.append(
                f"  {label:<10}{t_f_text}{t_m_text}{cpl:9.3f}"
                f"{self.to_cpf(cpl):9.3f}"
            )

        row("MA", self.ma.t_f, self.ma.t_m, self.ma.cpl)
        row("MAC", self.mac.t_f, self.mac.t_m, self.mac.cpl)
        row("MACS", self.macs_f.cpl, self.macs_m.cpl, self.macs.cpl)
        if self.t_p_cpl is not None:
            t_a = self.ax.t_a_cpl if self.ax else None
            t_x = self.ax.t_x_cpl if self.ax else None
            row("actual", t_x, t_a, self.t_p_cpl)
            lines.append("")
            lines.append(
                "  % of actual explained: "
                f"MA {self.percent_explained('ma'):.1f}%  "
                f"MAC {self.percent_explained('mac'):.1f}%  "
                f"MACS {self.percent_explained('macs'):.1f}%"
            )
        lines.append("")
        for note in self.diagnose():
            lines.append(f"  - {note}")
        return "\n".join(lines)


def analyze_kernel(
    spec_or_name: KernelSpec | str | int,
    n: int | None = None,
    options: CompilerOptions = DEFAULT_OPTIONS,
    config: MachineConfig = DEFAULT_CONFIG,
    timings: TimingTable | None = None,
    rules: ChimeRules | None = None,
    measure: bool = True,
    vl: int | None = None,
) -> KernelAnalysis:
    """Run the complete MACS methodology on one kernel.

    ``measure=False`` computes the bounds only (no simulation), which
    is cheap enough for interactive use.  ``n`` is accepted for API
    convenience but the case-study specs fix their standard sizes; a
    mismatching ``n`` raises.

    The MACS level honors the machine description in ``config``:
    ``timings``, ``rules``, and ``vl`` default to the config's timing
    table, chime-composition rules (including chaining), and hardware
    maximum VL, and the refresh factor is derived from the config's
    refresh period/duration.  The MA and MAC levels stay machine-ideal
    by construction (one element per clock); machine specificity
    enters the hierarchy at the S level, exactly as in the paper.
    """
    spec = (
        spec_or_name
        if isinstance(spec_or_name, KernelSpec)
        else kernel(spec_or_name)
    )
    if n is not None and n != int(spec.scalar_inputs["n"]):
        raise ModelError(
            f"{spec.name} uses the standard size n="
            f"{int(spec.scalar_inputs['n'])}; per-size sweeps should "
            "build their own KernelSpec"
        )
    if timings is None:
        timings = config.timings
    if rules is None:
        rules = ChimeRules.for_machine(config)
    if vl is None:
        vl = config.max_vl
    refresh = config.refresh_enabled
    factor = refresh_factor_for(config)
    compiled = compile_spec(spec, options)

    plan = compiled.innermost_vector_plan()
    ma_row = ma_bound(ma_counts(plan.analysis))
    body = inner_loop_body(compiled.program)
    mac_row = mac_bound(mac_counts(body))
    macs = macs_bound(compiled.program, vl, timings, rules,
                      refresh, factor)
    macs_f = macs_f_bound(compiled.program, vl, timings, rules,
                          refresh, factor)
    macs_m = macs_m_bound(compiled.program, vl, timings, rules,
                          refresh, factor)

    analysis = KernelAnalysis(
        spec=spec,
        compiled=compiled,
        ma=ma_row,
        mac=mac_row,
        macs=macs,
        macs_f=macs_f,
        macs_m=macs_m,
    )
    if measure:
        run = run_kernel(spec, options, config)
        analysis.t_p_cpl = run.cpl()
        analysis.ax = measure_ax(spec, compiled, config)
    return analysis


def analyze_workload(
    specs=None,
    options: CompilerOptions = DEFAULT_OPTIONS,
    config: MachineConfig = DEFAULT_CONFIG,
    measure: bool = True,
) -> list[KernelAnalysis]:
    """Analyze a set of kernels (default: the paper's ten LFKs)."""
    from ..workloads.lfk import CASE_STUDY_KERNELS

    chosen = CASE_STUDY_KERNELS if specs is None else specs
    return [
        analyze_kernel(spec, options=options, config=config,
                       measure=measure)
        for spec in chosen
    ]


def workload_hmean_mflops(
    analyses: list[KernelAnalysis], level: str
) -> float:
    """Harmonic-mean MFLOPS across kernels at one hierarchy level.

    ``level`` is 'ma' | 'mac' | 'macs' | 'actual' (Table 4's bottom
    row).
    """
    cpfs = []
    for analysis in analyses:
        if level == "ma":
            cpl = analysis.ma.cpl
        elif level == "mac":
            cpl = analysis.mac.cpl
        elif level == "macs":
            cpl = analysis.macs.cpl
        elif level == "actual":
            if analysis.t_p_cpl is None:
                raise ModelError("analysis lacks measurements")
            cpl = analysis.t_p_cpl
        else:
            raise ModelError(f"unknown hierarchy level {level!r}")
        cpfs.append(analysis.to_cpf(cpl))
    return harmonic_mean_mflops(cpfs)


def render_hierarchy() -> str:
    """ASCII rendering of the paper's Figure 1."""
    return "\n".join(
        [
            "MEASURED TIMES      t_x     t_a    == MERGE ==>   t_p",
            "CALCULATED BOUNDS   t_f''   t_m''  == MERGE ==>   t_MACS",
            "                    t_f'    t_m'   ==  MAX  ==>   t_MAC",
            "                    t_f     t_m    ==  MAX  ==>   t_MA",
            "",
            "ascending the hierarchy adds constraints:",
            "  t_MA   : Machine + Application (ideal compiler & schedule)",
            "  t_MAC  : + the Compiler-generated workload",
            "  t_MACS : + the compiler's Schedule (chimes, bubbles,",
            "            refresh)",
            "  t_p    : delivered performance (everything)",
        ]
    )

"""Static dataflow analysis and lint verification for compiled programs.

The subsystem layers, bottom to top:

* :mod:`repro.analysis.cfg` — basic blocks, dominators, natural loops;
* :mod:`repro.analysis.dataflow` — reaching definitions, definite
  assignment, liveness, def-use chains, VL constant propagation;
* :mod:`repro.analysis.checks` — the lint checker suite
  (uninitialized reads, VL hazards, chime/pair legality, memory
  overlap, dead stores, unreachable code) with comment-directive
  suppression;
* :mod:`repro.analysis.counts` — static prediction of the simulator's
  vector counters from a trip profile (the differential oracle);
* :mod:`repro.analysis.critpath` — chime-level critical-path / binding
  pipe estimation;
* :mod:`repro.analysis.staticpred` — the ``advise`` body's
  prediction: a kernel's memoized simulated run, always exact.

Entry points: :func:`analyze_program` (memoized CFG + dataflow),
:func:`lint_program`, :func:`static_counts`,
:func:`static_critical_path`, and
:func:`~repro.analysis.staticpred.predict_program`.  The memo is
keyed by program identity and emptied by
``repro.workloads.clear_caches``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from ..isa.program import Program
from ..isa.registers import VECTOR_REGISTER_LENGTH
from ..memo import Memo
from .cfg import CFG, BasicBlock, Loop, build_cfg
from .checks import (
    DEFAULT_LINT_OPTIONS,
    Finding,
    LintOptions,
    Severity,
    run_checks,
)
from .counts import StaticCounts, StripInfo, estimate_counts, find_strip_loop
from .critpath import ChimeCost, CriticalPath, critical_path
from .dataflow import DataflowResult, solve
from .staticpred import StaticPrediction, predict_program

__all__ = [
    "BasicBlock",
    "CFG",
    "ChimeCost",
    "CriticalPath",
    "DEFAULT_LINT_OPTIONS",
    "DataflowResult",
    "Finding",
    "LintOptions",
    "Loop",
    "ProgramAnalysis",
    "Severity",
    "StaticCounts",
    "StaticPrediction",
    "StripInfo",
    "analyze_program",
    "build_cfg",
    "find_strip_loop",
    "lint_program",
    "predict_program",
    "static_counts",
    "static_critical_path",
]


@dataclass(frozen=True)
class ProgramAnalysis:
    """Solved CFG + dataflow for one program (cached per program)."""

    program: Program
    cfg: CFG
    dataflow: DataflowResult

    @property
    def strip_loop(self) -> StripInfo | None:
        return find_strip_loop(self.cfg, self.dataflow)


#: Solved analyses, keyed on the program object.
_ANALYSIS_MEMO: Memo[Program, ProgramAnalysis] = Memo("analysis", 512)


def analyze_program(program: Program) -> ProgramAnalysis:
    """Build (or fetch the cached) CFG and dataflow solution."""
    cached = _ANALYSIS_MEMO.get(program)
    if cached is not None:
        return cached
    cfg = build_cfg(program)
    analysis = ProgramAnalysis(
        program=program, cfg=cfg, dataflow=solve(cfg)
    )
    _ANALYSIS_MEMO.put(program, analysis)
    return analysis


def lint_program(
    program: Program,
    options: LintOptions = DEFAULT_LINT_OPTIONS,
) -> tuple[Finding, ...]:
    """Run the full checker suite over a program."""
    analysis = analyze_program(program)
    return run_checks(analysis.cfg, analysis.dataflow, options)


def static_counts(
    program: Program,
    trips: Sequence[int],
    max_vl: int = VECTOR_REGISTER_LENGTH,
) -> StaticCounts:
    """Predict the simulator's vector counters for a trip profile."""
    analysis = analyze_program(program)
    return estimate_counts(
        analysis.cfg, analysis.dataflow, trips, max_vl
    )


def static_critical_path(
    program: Program,
    trips: Sequence[int] | None = None,
    max_vl: int = VECTOR_REGISTER_LENGTH,
) -> CriticalPath:
    """Chime-level critical path of the program's strip loop."""
    analysis = analyze_program(program)
    return critical_path(
        analysis.cfg, analysis.dataflow, trips, max_vl=max_vl
    )

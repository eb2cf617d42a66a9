"""Workloads: the ten case-study Livermore kernels and a loop generator.

Public surface:

* :data:`CASE_STUDY_KERNELS`, :func:`kernel`, :class:`KernelSpec` —
  the paper's workload set;
* :func:`run_kernel` / :class:`KernelRun` — compile + simulate +
  verify;
* :func:`generate_loop` (in :mod:`~repro.workloads.generator`) —
  random vectorizable loops for property-based testing.
"""

from .lfk import (
    CASE_STUDY_KERNELS,
    KernelSpec,
    LFK1,
    LFK2,
    LFK3,
    LFK4,
    LFK6,
    LFK7,
    LFK8,
    LFK9,
    LFK10,
    LFK12,
    MAWorkload,
    kernel,
    kernel_names,
)
from .extra import EXCLUDED_KERNELS, LFK5, LFK11
from .generator import GeneratedLoop, generate_loop
from .runner import KernelRun, clear_caches, compile_spec, prepare_simulator, run_kernel
from .stencils import STENCIL_KERNELS

#: Every named workload: the ten case-study kernels, the two excluded
#: LFK kernels, and the extra stencil/BLAS loops.
ALL_WORKLOADS: tuple[KernelSpec, ...] = (
    *CASE_STUDY_KERNELS,
    *EXCLUDED_KERNELS,
    *STENCIL_KERNELS,
)

_WORKLOADS_BY_NAME = {spec.name: spec for spec in ALL_WORKLOADS}


def workload(name: str) -> KernelSpec:
    """Look up any workload (case-study, excluded, or stencil) by name."""
    from ..errors import WorkloadError

    spec = _WORKLOADS_BY_NAME.get(name.lower())
    if spec is None:
        raise WorkloadError(
            f"unknown workload {name!r}; known: "
            f"{sorted(_WORKLOADS_BY_NAME)}"
        )
    return spec


def workload_names() -> tuple[str, ...]:
    return tuple(spec.name for spec in ALL_WORKLOADS)


__all__ = [
    "ALL_WORKLOADS",
    "CASE_STUDY_KERNELS",
    "EXCLUDED_KERNELS",
    "KernelRun",
    "KernelSpec",
    "LFK1",
    "LFK10",
    "LFK11",
    "LFK12",
    "LFK2",
    "LFK3",
    "LFK4",
    "LFK5",
    "LFK6",
    "LFK7",
    "LFK8",
    "LFK9",
    "MAWorkload",
    "STENCIL_KERNELS",
    "GeneratedLoop",
    "clear_caches",
    "compile_spec",
    "generate_loop",
    "kernel",
    "kernel_names",
    "prepare_simulator",
    "run_kernel",
    "workload",
    "workload_names",
]

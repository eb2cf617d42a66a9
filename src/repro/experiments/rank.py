"""Cross-machine ranking: which machine wins a workload mix, and
which schedule wins on a machine.

The paper's §5 pitch for hierarchical modeling is *retargeting*: once
machine parameters live in data, the same kernels can be ranked across
a machine family.  This experiment does exactly that with the
declarative machine registry:

* **Part 1** simulates a kernel set on every requested machine and
  ranks the machines by geometric-mean time per loop iteration in
  *nanoseconds* (cycles x clock period — CPL alone cannot compare a
  40 ns C-240 against a 12.5 ns Cray-alike).  The static ``t_MACS``
  bound is ranked the same way; the table reports whether the cheap
  bound already predicts the simulated order.
* **Part 2** fixes one machine and ranks the compiler's option
  variants (schedules) for one kernel on it — the advisor question
  ("which schedule should I ship for this machine?") answered by
  simulation.
"""

from __future__ import annotations

import math

from ..errors import ExperimentError
from ..machines import resolve_machines, tuned_options
from ..machines.schema import MachineDescription
from ..sweep.api import grid_outcomes
from ..sweep.spec import OPTION_VARIANTS, SweepTask
from .formatting import ExperimentResult, TextTable

#: Default kernel mix: a streaming kernel, an inner product, an
#: equation-of-state fragment, and an ADI sweep — small but diverse.
DEFAULT_KERNELS = ("lfk1", "lfk3", "lfk7", "lfk8")


def _geomean(values: list[float]) -> float:
    if not values:
        raise ExperimentError("geometric mean of an empty kernel set")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _machine_tasks(
    descriptions: list[MachineDescription],
    kernels: tuple[str, ...],
    mode: str,
) -> list[SweepTask]:
    tasks = []
    for description in descriptions:
        config = description.config
        for kernel in kernels:
            tasks.append(
                SweepTask(
                    workload=kernel,
                    options=tuned_options(
                        OPTION_VARIANTS["default"], config
                    ),
                    config=config,
                    tags=(
                        ("machine", description.name),
                        ("mode", mode),
                    ),
                    mode=mode,
                )
            )
    return tasks


def run_rank(
    machines: str = "all",
    kernels: tuple[str, ...] | None = None,
    jobs: int | None = None,
) -> ExperimentResult:
    """Rank machines for a workload mix, then schedules on a machine."""
    descriptions = resolve_machines(machines)
    kernel_names = (
        DEFAULT_KERNELS if kernels is None else tuple(kernels)
    )
    if not kernel_names:
        raise ExperimentError("rank needs at least one kernel")

    run_tasks = _machine_tasks(descriptions, kernel_names, "run")
    bound_tasks = _machine_tasks(descriptions, kernel_names, "bound")
    outcomes = grid_outcomes(run_tasks + bound_tasks, jobs=jobs)

    # ns per loop iteration, per (machine, kernel), per mode
    ns_per_iter: dict[tuple[str, str, str], float] = {}
    for task, outcome in zip(run_tasks + bound_tasks, outcomes):
        key = (task.tag("machine"), task.workload, task.mode)
        ns_per_iter[key] = (
            outcome.metrics["cpl"] * task.config.clock_period_ns
        )

    def geomean_ns(name: str, mode: str) -> float:
        return _geomean(
            [ns_per_iter[(name, k, mode)] for k in kernel_names]
        )

    simulated = sorted(
        descriptions, key=lambda d: (geomean_ns(d.name, "run"), d.name)
    )
    bounded = sorted(
        descriptions,
        key=lambda d: (geomean_ns(d.name, "bound"), d.name),
    )
    same_order = [d.name for d in simulated] == [d.name for d in bounded]

    table = TextTable(
        ["rank", "machine", "clock ns",
         *[f"{k} ns/it" for k in kernel_names],
         "geomean ns/it", "bound rank"]
    )
    bound_rank = {d.name: i + 1 for i, d in enumerate(bounded)}
    ranking = []
    for rank, description in enumerate(simulated, start=1):
        name = description.name
        table.add_row(
            rank,
            name,
            f"{description.config.clock_period_ns:g}",
            *[f"{ns_per_iter[(name, k, 'run')]:.1f}"
              for k in kernel_names],
            f"{geomean_ns(name, 'run'):.1f}",
            bound_rank[name],
        )
        ranking.append({
            "machine": name,
            "rank": rank,
            "bound_rank": bound_rank[name],
            "geomean_ns_per_iter": geomean_ns(name, "run"),
        })

    # Part 2: schedules on the winning machine, first kernel.
    target = simulated[0]
    kernel = kernel_names[0]
    variant_names = list(OPTION_VARIANTS)
    schedule_tasks = [
        SweepTask(
            workload=kernel,
            options=tuned_options(OPTION_VARIANTS[name], target.config),
            config=target.config,
            tags=(("variant", name),),
        )
        for name in variant_names
    ]
    schedule_outcomes = grid_outcomes(schedule_tasks, jobs=jobs)
    by_variant = sorted(
        zip(variant_names, schedule_outcomes),
        key=lambda pair: (pair[1].metrics["cpl"], pair[0]),
    )
    schedule_table = TextTable(["rank", "schedule", "CPL", "MFLOPS"])
    schedule_ranking = []
    for rank, (name, outcome) in enumerate(by_variant, start=1):
        schedule_table.add_row(
            rank, name,
            f"{outcome.metrics['cpl']:.2f}",
            f"{outcome.metrics['mflops']:.1f}",
        )
        schedule_ranking.append(
            {"variant": name, "cpl": outcome.metrics["cpl"]}
        )

    body = "\n".join([
        f"machines ranked on {{{', '.join(kernel_names)}}} "
        "(simulated, geometric-mean ns per loop iteration):",
        "",
        table.render(),
        "",
        f"schedules ranked on {target.name} ({kernel}, simulated):",
        "",
        schedule_table.render(),
    ])
    notes = [
        f"machine summaries: " + "; ".join(
            f"{d.name}: {d.summary()}" for d in descriptions
        ),
        "static t_MACS bound "
        + ("reproduces" if same_order else "does NOT reproduce")
        + " the simulated machine order",
    ]
    return ExperimentResult(
        artifact="Rank",
        title="machine family and schedule ranking",
        body=body,
        notes=notes,
        data={
            "machines": [d.name for d in descriptions],
            "kernels": list(kernel_names),
            "ranking": ranking,
            "bound_same_order": same_order,
            "schedule_machine": target.name,
            "schedule_kernel": kernel,
            "schedule_ranking": schedule_ranking,
        },
    )

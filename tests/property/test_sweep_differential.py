"""Differential properties of the sweep engine.

For any hypothesis-generated grid over randomized `MachineConfig`s,
`run_sweep` (sequential or parallel) must produce metrics bit-identical
to a plain `run_kernel` loop over the same cells.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.machine import DEFAULT_CONFIG
from repro.sweep import OPTION_VARIANTS, SweepTask, run_sweep
from repro.workloads import run_kernel, workload
from repro.workloads.runner import sized_spec

#: Cheap single-loop kernels (small native problem sizes).
KERNEL_NAMES = ("lfk1", "lfk3", "lfk11", "lfk12", "daxpy")

VARIANT_NAMES = tuple(OPTION_VARIANTS)


def configs():
    """Randomized-but-valid MachineConfig variations."""
    return st.builds(
        DEFAULT_CONFIG.replace,
        scalar_load_latency=st.integers(min_value=1, max_value=6),
        branch_taken_penalty=st.integers(min_value=0, max_value=4),
        refresh_enabled=st.booleans(),
        memory_contention_factor=st.sampled_from([1.0, 1.2, 1.5]),
    )


def grids():
    return st.lists(
        st.builds(
            SweepTask,
            workload=st.sampled_from(KERNEL_NAMES),
            options=st.sampled_from(
                [OPTION_VARIANTS[name] for name in VARIANT_NAMES]
            ),
            config=configs(),
            n=st.sampled_from([None, 32, 100]),
        ),
        min_size=1,
        max_size=4,
    )


def reference_metrics(task: SweepTask) -> dict:
    """What a plain sequential run_kernel loop computes for one cell."""
    spec = workload(task.workload)
    if task.n is not None:
        spec = sized_spec(spec, task.n)
    run = run_kernel(spec, task.options, task.config)
    return {
        "cycles": run.result.cycles,
        "instructions": run.result.instructions_executed,
        "vector_instructions": run.result.vector_instructions,
        "scalar_instructions": run.result.scalar_instructions,
        "vector_memory_ops": run.result.vector_memory_ops,
        "scalar_memory_ops": run.result.scalar_memory_ops,
        "flops": run.result.flops,
        "cpl": run.cpl(),
        "cpf": run.cpf(),
    }


class TestSweepMatchesSequentialLoop:
    @given(tasks=grids())
    @settings(max_examples=25, deadline=None)
    def test_sequential_sweep_is_bit_identical(self, tasks):
        result = run_sweep(tasks, jobs=1)
        assert len(result.outcomes) == len(tasks)
        for task, outcome in zip(tasks, result.outcomes):
            assert outcome.ok, outcome.error
            expected = reference_metrics(task)
            for name, value in expected.items():
                assert outcome.metrics[name] == value, (
                    f"{task.key}: {name}"
                )

    @given(tasks=grids())
    @settings(
        max_examples=5, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_parallel_sweep_is_bit_identical(self, tasks):
        sequential = run_sweep(tasks, jobs=1)
        parallel = run_sweep(tasks, jobs=2)
        assert parallel.results_jsonl() == sequential.results_jsonl()


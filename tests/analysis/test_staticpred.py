"""The ``advise`` prediction: a kernel's memoized run, always exact.

:func:`repro.model.predict_kernel` takes ``t_p`` and the six counters
from ``run_kernel``'s memo and wraps the run with
:func:`repro.analysis.predict_program`.  Each test checks one
behaviour against a fresh simulation, not against the memo.
"""

import math

import pytest

from repro.analysis import predict_program
from repro.analysis.staticpred import StaticPrediction
from repro.errors import BudgetExceededError
from repro.machine import DEFAULT_CONFIG
from repro.model import predict_kernel
from repro.workloads import compile_spec, run_kernel, workload
from repro.workloads.runner import prepare_simulator

COUNTERS = (
    "instructions_executed",
    "vector_instructions",
    "scalar_instructions",
    "vector_memory_ops",
    "scalar_memory_ops",
    "flops",
)


def fresh_run(name, config=DEFAULT_CONFIG):
    """One simulation of a workload that bypasses every memo."""
    spec = workload(name)
    return prepare_simulator(spec, compile_spec(spec), config).run()


class TestExactTier:
    @pytest.mark.parametrize("name", ["lfk1", "lfk3", "lfk12"])
    def test_bit_exact_against_simulator(self, name):
        prediction = predict_kernel(name).prediction
        result = fresh_run(name)
        assert isinstance(prediction, StaticPrediction)
        assert prediction.tier == "exact"
        assert prediction.cycles == result.cycles
        for counter in COUNTERS:
            assert getattr(prediction.result, counter) == \
                getattr(result, counter)

    def test_interval_is_degenerate(self):
        body = predict_kernel("lfk1").to_payload()
        assert body["exact"] is True
        assert body["cycles_low"] == body["cycles"] == body["cycles_high"]
        assert body["cpl_low"] == body["cpl"] == body["cpl_high"]

    def test_scalar_recurrence_kernel_is_exact(self):
        # lfk5 has no vector loop at all: pure scalar interpretation.
        prediction = predict_kernel("lfk5").prediction
        assert prediction.tier == "exact"
        assert prediction.cycles == fresh_run("lfk5").cycles

    def test_scalar_cache_config_is_exact(self):
        # Scalar-cache timing depends on every scalar load address;
        # the run's cycles carry it like any other timing rule.
        config = DEFAULT_CONFIG.with_scalar_cache()
        prediction = predict_kernel("lfk1", config=config).prediction
        assert prediction.tier == "exact"
        assert prediction.cycles == run_kernel(
            workload("lfk1"), config=config
        ).cycles
        assert prediction.cycles == fresh_run("lfk1", config).cycles
        assert prediction.cycles != fresh_run("lfk1").cycles

    @pytest.mark.parametrize(
        "name,budget",
        [("lfk1", 4050.0), ("lfk1", 4249.0), ("lfk7", 10861.0),
         ("lfk12", 3154.0)],
    )
    def test_cycle_budget_covers_the_final_drain(self, name, budget):
        with pytest.raises(BudgetExceededError) as excinfo:
            predict_kernel(
                name, config=DEFAULT_CONFIG.with_cycle_budget(budget)
            )
        assert excinfo.value.budget == "cycles"
        assert excinfo.value.limit == budget

    @pytest.mark.parametrize("name", ["lfk1", "lfk7", "lfk12"])
    def test_cycle_budget_equal_to_the_finish_passes(self, name):
        unbounded = predict_kernel(name)
        bounded = predict_kernel(
            name, config=DEFAULT_CONFIG.with_cycle_budget(unbounded.cycles)
        )
        assert bounded.prediction.tier == "exact"
        assert bounded.cycles == unbounded.cycles


class TestPredictionSurface:
    def test_counters_are_integers(self):
        metrics = predict_kernel("lfk2").metrics()
        for name in ("instructions", "vector_instructions",
                     "scalar_instructions", "vector_memory_ops",
                     "scalar_memory_ops", "flops"):
            assert isinstance(metrics[name], int)

    def test_cycles_are_finite(self):
        prediction = predict_program(fresh_run("lfk2"))
        assert math.isfinite(prediction.cycles)
        assert prediction.cycles > 0

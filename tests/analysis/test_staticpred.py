"""The abstract-interpretation predictor, one behaviour per test."""

import math

import pytest

from repro.analysis import MODEL_TIER_WIDEN, predict_program
from repro.analysis.staticpred import StaticPrediction
from repro.errors import AnalysisError
from repro.isa.builder import AsmBuilder
from repro.isa.operands import Immediate
from repro.isa.registers import areg, sreg, vreg
from repro.machine import DEFAULT_CONFIG
from repro.model import known_initial_memory
from repro.workloads import compile_spec, run_kernel, workload


def predict_spec(name, config=DEFAULT_CONFIG):
    spec = workload(name)
    compiled = compile_spec(spec)
    return spec, compiled, predict_program(
        compiled.program,
        config,
        known_memory=known_initial_memory(spec, compiled),
        trips=spec.trip_profile or None,
    )


class TestExactTier:
    @pytest.mark.parametrize("name", ["lfk1", "lfk3", "lfk12"])
    def test_bit_exact_against_simulator(self, name):
        spec, _compiled, prediction = predict_spec(name)
        result = run_kernel(spec).result
        assert prediction.exact
        assert prediction.tier == "exact"
        assert prediction.cycles == result.cycles
        assert prediction.counters() == {
            "instructions_executed": result.instructions_executed,
            "vector_instructions": result.vector_instructions,
            "scalar_instructions": result.scalar_instructions,
            "vector_memory_ops": result.vector_memory_ops,
            "scalar_memory_ops": result.scalar_memory_ops,
            "flops": result.flops,
        }

    def test_interval_is_degenerate(self):
        _spec, _compiled, prediction = predict_spec("lfk1")
        assert prediction.cycles_low == prediction.cycles
        assert prediction.cycles_high == prediction.cycles
        assert prediction.relative_width == 0.0

    def test_scalar_recurrence_kernel_is_exact(self):
        # lfk5 has no vector loop at all: pure scalar interpretation.
        spec, _compiled, prediction = predict_spec("lfk5")
        result = run_kernel(spec).result
        assert prediction.exact
        assert prediction.cycles == result.cycles

    @pytest.mark.parametrize(
        "name,budget",
        [("lfk1", 4050.0), ("lfk1", 4249.0), ("lfk7", 10861.0),
         ("lfk12", 3154.0)],
    )
    def test_cycle_budget_covers_the_final_drain(self, name, budget):
        from repro.errors import BudgetExceededError

        with pytest.raises(BudgetExceededError) as excinfo:
            predict_spec(name, DEFAULT_CONFIG.with_cycle_budget(budget))
        assert excinfo.value.budget == "cycles"
        assert excinfo.value.limit == budget

    @pytest.mark.parametrize("name", ["lfk1", "lfk7", "lfk12"])
    def test_cycle_budget_equal_to_the_finish_passes(self, name):
        _spec, _compiled, unbounded = predict_spec(name)
        _spec, _compiled, prediction = predict_spec(
            name, DEFAULT_CONFIG.with_cycle_budget(unbounded.cycles)
        )
        assert prediction.exact
        assert prediction.cycles == unbounded.cycles

    def test_chaos_skew_adds_to_the_cycles(self):
        from repro.resilience.faults import FaultPlan, FaultSpec, chaos

        _spec, _compiled, clean = predict_spec("lfk1")
        plan = FaultPlan(faults=(
            FaultSpec(site="static.predict", kind="skew", value=37.0),
        ))
        with chaos(plan):
            _spec, _compiled, skewed = predict_spec("lfk1")
        assert skewed.cycles == clean.cycles + 37.0
        assert (skewed.cycles_low, skewed.cycles_high) == \
            (skewed.cycles, skewed.cycles)
        assert skewed.tier == clean.tier == "exact"
        assert skewed.counters() == clean.counters()

    def test_to_dict_carries_the_counter_schema(self):
        _spec, _compiled, prediction = predict_spec("lfk3")
        payload = prediction.to_dict()
        assert payload["program"] == "lfk3"
        assert payload["tier"] == "exact"
        assert payload["exact"] is True
        assert payload["cycles"] == prediction.cycles
        for name, value in prediction.counters().items():
            assert payload[name] == value
        assert "decline_reason" not in payload


def data_dependent_branch_program():
    """A strip loop followed by a branch on (opaque) array data."""
    b = AsmBuilder("datadep")
    x = b.data("x", 4096)
    b.mov(Immediate(0), areg(0))
    b.mov(Immediate(300), areg(7))
    b.mov(Immediate(0), areg(5))
    with b.strip_loop(areg(7), areg(5)):
        b.vload(b.mem(x, areg(5)), vreg(0))
        b.vadd(vreg(0), vreg(0), vreg(1))
        b.vstore(vreg(1), b.mem(x, areg(5)))
    b.op("ld", b.mem(x, areg(0)), sreg(0), suffix="l")
    b.compare_lt(Immediate(1), sreg(0))
    skip = b.fresh_label()
    b.branch_true(skip)
    b.mov(Immediate(1), areg(1))
    b.label(skip)
    b.mov(Immediate(0), areg(1))
    return b.build()


class TestModelTier:
    def test_unknown_branch_falls_back_to_model(self):
        program = data_dependent_branch_program()
        prediction = predict_program(
            program, DEFAULT_CONFIG, trips=(300,)
        )
        assert not prediction.exact
        assert prediction.tier == "model"
        assert prediction.decline_reason == "branch-on-unknown-flag"

    def test_model_interval_has_documented_width(self):
        program = data_dependent_branch_program()
        prediction = predict_program(
            program, DEFAULT_CONFIG, trips=(300,)
        )
        assert prediction.cycles_low == prediction.cycles
        assert prediction.cycles_high == pytest.approx(
            prediction.cycles_low * MODEL_TIER_WIDEN
        )
        assert prediction.relative_width > 0.0

    def test_model_tier_without_trips_is_an_error(self):
        program = data_dependent_branch_program()
        with pytest.raises(AnalysisError):
            predict_program(program, DEFAULT_CONFIG)

    def test_scalar_cache_config_uses_model_tier(self):
        spec = workload("lfk1")
        compiled = compile_spec(spec)
        prediction = predict_program(
            compiled.program,
            DEFAULT_CONFIG.with_scalar_cache(),
            known_memory=known_initial_memory(spec, compiled),
            trips=spec.trip_profile or None,
        )
        assert not prediction.exact
        assert prediction.decline_reason == "scalar-cache-enabled"


class TestPredictionSurface:
    def test_counters_are_integers(self):
        _spec, _compiled, prediction = predict_spec("lfk2")
        for value in prediction.counters().values():
            assert isinstance(value, int)

    def test_cycles_are_finite(self):
        _spec, _compiled, prediction = predict_spec("lfk2")
        assert math.isfinite(prediction.cycles)
        assert prediction.cycles > 0

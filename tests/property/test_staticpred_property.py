"""Property tests: the ``advise`` prediction holds for any data.

``advise`` reports one simulated run of a kernel, on the workload's
own data, through :func:`repro.analysis.predict_program`, and labels
it ``exact``.  The timing model reads only control state — the
instruction stream, branch directions and VL — never vector data, so
that run's cycles and counters must equal a run of the same program
on any other data.  Random generated loops check it on the default
machine; long loops pin it down on three machines, where the runs
step the most strips, and check their outputs against the NumPy
reference.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import predict_program
from repro.compiler import DEFAULT_OPTIONS, compile_kernel
from repro.machine import DEFAULT_CONFIG, Simulator
from repro.machines import builtin_machine, tuned_options
from repro.workloads import generate_loop

COUNTERS = (
    "instructions_executed",
    "vector_instructions",
    "scalar_instructions",
    "vector_memory_ops",
    "scalar_memory_ops",
    "flops",
)


def simulate(generated, compiled, data, config):
    sim = Simulator(compiled.program, config=config)
    for name, values in compiled.initial_data(data).items():
        sim.load_symbol(name, values)
    sim.memory.load_array(
        compiled.scalar_word_offset("n"),
        np.asarray([float(generated.n)]),
    )
    for name, value in generated.scalars.items():
        sim.memory.load_array(
            compiled.scalar_word_offset(name), np.asarray([value])
        )
    return sim, sim.run()


def predict(generated, compiled, config, data):
    """The prediction ``advise`` would make from a run on ``data``."""
    _sim, result = simulate(generated, compiled, data, config)
    return predict_program(result)


def assert_holds(prediction, result):
    assert prediction.tier == "exact"
    assert prediction.cycles == result.cycles
    for name in COUNTERS:
        assert getattr(prediction.result, name) == getattr(result, name)


def check_one(seed, data_seed, config):
    """Predict from the loop's reference data, then run other data."""
    generated = generate_loop(seed)
    compiled = compile_kernel(generated.source, "prop")
    prediction = predict(
        generated, compiled, config,
        generated.make_data(random.Random(0)),
    )
    data = generated.make_data(random.Random(data_seed))
    _sim, result = simulate(generated, compiled, data, config)
    assert_holds(prediction, result)
    return generated, compiled, prediction


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), data_seed=st.integers(1, 10_000))
def test_prediction_tracks_simulator(seed, data_seed):
    check_one(seed, data_seed, DEFAULT_CONFIG)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_prediction_is_data_independent(seed):
    """Zeroed and negated inputs leave the prediction's claim intact.

    Whatever values the arrays hold, a program's timing is the same,
    so a prediction made from one data filling holds for every
    other — the core soundness property of the timing model.
    """
    generated, compiled, prediction = check_one(seed, 1, DEFAULT_CONFIG)
    reference = generated.make_data(random.Random(0))
    for data in (
        {name: np.zeros_like(values) for name, values in reference.items()},
        {name: -1e6 * values for name, values in reference.items()},
    ):
        _sim, result = simulate(generated, compiled, data, DEFAULT_CONFIG)
        assert_holds(prediction, result)


@pytest.mark.parametrize("machine", ["c240", "c3800like", "cray-nochain"])
@pytest.mark.parametrize("n", [4096, 32768])
@pytest.mark.parametrize("seed", [3, 8, 10])
def test_long_loops_stay_exact(seed, n, machine):
    config = builtin_machine(machine).config
    generated = generate_loop(seed, n=n)
    compiled = compile_kernel(
        generated.source, "long", tuned_options(DEFAULT_OPTIONS, config)
    )
    prediction = predict(
        generated, compiled, config,
        generated.make_data(random.Random(seed + 1)),
    )
    data = generated.make_data(random.Random(seed))
    sim, result = simulate(generated, compiled, data, config)
    assert_holds(prediction, result)
    expected = generated.reference(data)
    if generated.is_reduction:
        actual = float(
            sim.memory.dump_array(compiled.scalar_word_offset("ACC"), 1)[0]
        )
        assert np.isclose(actual, expected, rtol=1e-9)
    else:
        out = sim.dump_symbol(generated.output_array)
        assert np.allclose(out[4 : 4 + n], expected, rtol=1e-9)

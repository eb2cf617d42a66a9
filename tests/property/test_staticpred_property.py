"""Property tests: the static predictor vs the simulator.

Random generated loops.  The contract under test is the predictor's
tier label:

* **exact tier** (``prediction.exact``) is a bit-exactness claim —
  cycles and every counter must equal the simulator's observed run;
* **model tier** answers are bounds — the observed cycle count must
  fall inside ``[cycles_low, cycles_high]``.

Long loops on three machines pin the exact tier down where the walker
steps the most strips.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import predict_program
from repro.compiler import DEFAULT_OPTIONS, compile_kernel
from repro.compiler.scalar import LITERALS_SYMBOL, SCALARS_SYMBOL
from repro.machine import DEFAULT_CONFIG, Simulator
from repro.machines import builtin_machine, tuned_options
from repro.workloads import generate_loop


def known_memory_for(generated, compiled):
    """Exactly the words ``simulate`` below makes non-opaque."""
    known = {}
    layout = compiled.program.layout
    scalars = layout.lookup(SCALARS_SYMBOL)
    for word in range(
        scalars.offset_words,
        scalars.offset_words + scalars.size_bytes // 8,
    ):
        known[word] = 0.0
    if compiled.literal_values:
        base = layout.lookup(LITERALS_SYMBOL).offset_words
        for index, value in enumerate(compiled.literal_values):
            known[base + index] = float(value)
    known[compiled.scalar_word_offset("n")] = float(generated.n)
    for name, value in generated.scalars.items():
        known[compiled.scalar_word_offset(name)] = float(value)
    return known


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


def check_one(seed, data_seed, config):
    generated = generate_loop(seed)
    compiled = compile_kernel(generated.source, "prop")
    prediction = predict_program(
        compiled.program,
        config,
        known_memory=known_memory_for(generated, compiled),
        trips=(generated.n,),
    )
    data = generated.make_data(random.Random(data_seed))
    _sim, result = simulate(generated, compiled, data, config)
    if prediction.exact:
        assert prediction.cycles == result.cycles
        assert (
            prediction.instructions_executed
            == result.instructions_executed
        )
        assert (
            prediction.vector_instructions
            == result.vector_instructions
        )
        assert (
            prediction.scalar_instructions
            == result.scalar_instructions
        )
        assert (
            prediction.vector_memory_ops == result.vector_memory_ops
        )
        assert (
            prediction.scalar_memory_ops == result.scalar_memory_ops
        )
        assert prediction.flops == result.flops
        assert prediction.cycles_low == prediction.cycles_high
    else:
        assert prediction.tier == "model"
        assert prediction.cycles_low <= prediction.cycles_high
        assert (
            prediction.cycles_low
            <= result.cycles
            <= prediction.cycles_high
        )
    return prediction


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), data_seed=st.integers(0, 10_000))
def test_prediction_tracks_simulator(seed, data_seed):
    check_one(seed, data_seed, DEFAULT_CONFIG)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_prediction_is_data_independent(seed):
    """Two different data seeds cannot change the prediction's claim.

    The predictor never sees array data, so whatever it predicts must
    hold across all data fillings — the core soundness property of
    the timing abstraction.
    """
    first = check_one(seed, 1, DEFAULT_CONFIG)
    second = check_one(seed, 2, DEFAULT_CONFIG)
    assert first == second


@pytest.mark.parametrize("machine", ["c240", "c3800like", "cray-nochain"])
@pytest.mark.parametrize("n", [4096, 32768])
@pytest.mark.parametrize("seed", [3, 8, 10])
def test_long_loops_stay_exact(seed, n, machine):
    config = builtin_machine(machine).config
    generated = generate_loop(seed, n=n)
    compiled = compile_kernel(
        generated.source, "long", tuned_options(DEFAULT_OPTIONS, config)
    )
    prediction = predict_program(
        compiled.program,
        config,
        known_memory=known_memory_for(generated, compiled),
        trips=(n,),
    )
    data = generated.make_data(random.Random(seed))
    sim, result = simulate(generated, compiled, data, config)
    assert prediction.exact
    assert prediction.cycles == result.cycles
    assert prediction.counters() == {
        name: getattr(result, name) for name in prediction.counters()
    }
    expected = generated.reference(data)
    if generated.is_reduction:
        actual = float(
            sim.memory.dump_array(compiled.scalar_word_offset("ACC"), 1)[0]
        )
        assert np.isclose(actual, expected, rtol=1e-9)
    else:
        out = sim.dump_symbol(generated.output_array)
        assert np.allclose(out[4 : 4 + n], expected, rtol=1e-9)

"""Vector chaining as a machine parameter.

With chaining disabled a consumer waits for its producer's *last*
element instead of its first, so every vector kernel gets slower (or,
degenerately, no faster) while still computing the right answers; the
chime model mirrors the same switch by composing chimes as
``sum(Z*VL) + sum(B)`` instead of ``max(Z*VL) + sum(B)``.
"""

import pytest

from repro.isa.timing import default_timing_table
from repro.machine.config import DEFAULT_CONFIG
from repro.model import macs_bound
from repro.schedule.chimes import ChimeRules
from repro.workloads import compile_spec, run_kernel, workload

NO_CHAIN = DEFAULT_CONFIG.without_chaining()

VECTOR_KERNELS = ("lfk1", "lfk3", "lfk7", "lfk12")


def test_without_chaining_flips_only_the_flag():
    assert not NO_CHAIN.chaining_enabled
    assert NO_CHAIN.replace(chaining_enabled=True) == DEFAULT_CONFIG


@pytest.mark.parametrize("name", VECTOR_KERNELS)
def test_unchained_runs_verify_and_never_beat_chained(name):
    chained = run_kernel(name, config=DEFAULT_CONFIG, verify=True)
    unchained = run_kernel(name, config=NO_CHAIN, verify=True)
    assert unchained.result.cycles >= chained.result.cycles
    # same code, same work — only the timing moved
    assert unchained.result.flops == chained.result.flops
    assert unchained.result.instructions_executed == \
        chained.result.instructions_executed


def test_dependent_chain_pays_full_stream_latency():
    # lfk1 has load->mul->add->store chains; unchaining them must
    # cost real cycles, not round to zero
    chained = run_kernel("lfk1", config=DEFAULT_CONFIG)
    unchained = run_kernel("lfk1", config=NO_CHAIN)
    assert unchained.result.cycles > chained.result.cycles * 1.5


def test_chime_rules_follow_the_machine():
    rules = ChimeRules.for_machine(NO_CHAIN)
    assert not rules.chaining
    assert ChimeRules.for_machine(DEFAULT_CONFIG).chaining


@pytest.mark.parametrize("name", VECTOR_KERNELS)
def test_unchained_bound_dominates_chained_bound(name):
    compiled = compile_spec(workload(name))
    timings = default_timing_table()
    chained = macs_bound(
        compiled.program, rules=ChimeRules.for_machine(DEFAULT_CONFIG)
    )
    unchained = macs_bound(
        compiled.program, vl=NO_CHAIN.max_vl, timings=timings,
        rules=ChimeRules.for_machine(NO_CHAIN),
    )
    assert unchained.cpl > chained.cpl

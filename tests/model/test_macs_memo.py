"""MACS bounds against a direct chime partition of the filtered body.

``macs_bound``, ``macs_f_bound`` and ``macs_m_bound`` must report what
partitioning the inner loop (whole, without vector memory, without
vector FP) under the same rules reports, however often and in whatever
order they are asked about one compiled program; and they partition
each variant once per program and rule set.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.compiler.options import DEFAULT_OPTIONS
from repro.machines import builtin_machine, builtin_names, tuned_options
from repro.model import macs, macs_bound, macs_f_bound, macs_m_bound
from repro.model.macs import inner_loop_body
from repro.schedule import ChimeRules, partition_chimes
from repro.schedule.chimes import refresh_factor_for
from repro.workloads import (
    clear_caches, compile_spec, workload, workload_names,
)

#: (bound, which instructions of the inner loop it keeps)
BOUNDS = (
    (macs_bound, lambda instr: True),
    (macs_f_bound, lambda instr: not instr.is_vector_memory),
    (macs_m_bound, lambda instr: not instr.is_vector_fp),
)

#: (machine, rule switch turned off, or None for the machine's rules)
CASES = [(name, None) for name in builtin_names()] + [
    ("c240", switch)
    for switch in (
        "enforce_register_pairs", "scalar_memory_splits", "chaining",
    )
]


def _rules(config, switch):
    rules = ChimeRules.for_machine(config)
    return rules if switch is None else replace(rules, **{switch: False})


def _other_rules(rules):
    return replace(
        rules, enforce_register_pairs=not rules.enforce_register_pairs
    )


def _check(program, config, rules):
    """Every bound agrees with a direct partition under ``rules``."""
    vl = config.max_vl
    refresh = config.refresh_enabled
    factor = refresh_factor_for(config)
    body = inner_loop_body(program)
    for bound_fn, keep in BOUNDS:
        bound = bound_fn(
            program, vl, config.timings, rules, refresh, factor
        )
        direct = partition_chimes([i for i in body if keep(i)], rules)
        cpl = (
            direct.cpl(vl, config.timings, refresh, rules.chaining, factor)
            if len(direct) else 0.0
        )
        assert bound.cpl == cpl, bound_fn.__name__
        assert bound.chime_count == len(direct), bound_fn.__name__
        assert bound.partition.scalar_memory_splits == \
            direct.scalar_memory_splits, bound_fn.__name__


@pytest.mark.parametrize("machine,switch", CASES)
def test_bounds_match_a_direct_partition(machine, switch):
    config = builtin_machine(machine).config
    rules = _rules(config, switch)
    options = tuned_options(DEFAULT_OPTIONS, config)
    for name in workload_names():
        program = compile_spec(workload(name), options).program
        _check(program, config, rules)  # first call
        _check(program, config, rules)  # repeated call
        _check(program, config, _other_rules(rules))
        _check(program, config, rules)  # after other rules


def _all_bounds(program, **kwargs):
    return [bound_fn(program, **kwargs) for bound_fn, _ in BOUNDS]


def test_each_partition_is_computed_once_per_rules(monkeypatch):
    calls = []
    real = macs.partition_chimes

    def counting(instructions, rules):
        calls.append(rules)
        return real(instructions, rules)

    monkeypatch.setattr(macs, "partition_chimes", counting)
    clear_caches()
    program = compile_spec(workload("lfk8")).program
    first = _all_bounds(program)
    second = _all_bounds(program)
    assert len(calls) == 3
    for again, bound in zip(second, first):
        assert again.partition is bound.partition

    # Costing is per call: another VL reuses the partitions.
    short = _all_bounds(program, vl=32)
    assert len(calls) == 3
    assert short[0].cpl != first[0].cpl

    other = ChimeRules(scalar_memory_splits=False)
    _all_bounds(program, rules=other)
    _all_bounds(program, rules=other)
    assert len(calls) == 6

    clear_caches()
    calls.clear()
    recompiled = compile_spec(workload("lfk8")).program
    assert recompiled is not program
    _all_bounds(recompiled)
    assert len(calls) == 3

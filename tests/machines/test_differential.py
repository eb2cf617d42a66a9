"""Differential gate: the shipped c240.toml IS the hard-coded C-240.

The machine file must be a faithful, byte-identical re-declaration of
the baseline the whole reproduction was calibrated against: identical
resolved config, identical content digest, and identical simulated
cycles/counters on every shipped workload.
"""

import pytest

from repro.machine.config import DEFAULT_CONFIG
from repro.machines import builtin_machine
from repro.workloads import run_kernel, workload, workload_names


@pytest.fixture(scope="module")
def c240():
    return builtin_machine("c240")


def test_resolved_config_is_the_baseline(c240):
    assert c240.config == DEFAULT_CONFIG


def test_timing_table_is_table1(c240):
    assert c240.config.timings == DEFAULT_CONFIG.timings


def test_content_digest_matches_the_baseline(c240):
    from repro.sweep.spec import digest

    assert c240.digest == digest(DEFAULT_CONFIG)


@pytest.mark.parametrize("name", workload_names())
def test_runs_byte_identical_to_hardcoded_baseline(c240, name):
    spec = workload(name)
    baseline = run_kernel(spec, config=DEFAULT_CONFIG, verify=True)
    from_file = run_kernel(spec, config=c240.config, verify=True)
    assert from_file.result.cycles == baseline.result.cycles
    br, fr = baseline.result, from_file.result
    assert (fr.instructions_executed, fr.vector_instructions,
            fr.flops, fr.mflops) == \
        (br.instructions_executed, br.vector_instructions,
         br.flops, br.mflops)
    assert from_file.cpl() == baseline.cpl()

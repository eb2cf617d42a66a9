"""Golden cycle table: absolute cycles and counters for every workload.

Pins ``Simulator.run``'s cycles and six counters for all 17 workloads
on each shipped machine (compiled with ``tuned_options``, as ``rank``,
the CLI and the service do) and on the c240 under each timing ablation,
so every branch of the timing rules is held to recorded numbers rather
than to another run of the same engine.

Regenerate the table (only when a timing change is intended) with::

    PYTHONPATH=src python tests/machines/test_golden_cycles.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.compiler import DEFAULT_OPTIONS
from repro.machine import DEFAULT_CONFIG
from repro.machines import builtin_machine, builtin_names, tuned_options
from repro.workloads import compile_spec, workload, workload_names
from repro.workloads.runner import prepare_simulator

TABLE = Path(__file__).parent / "data" / "golden_cycles.json"

COUNTERS = ("cycles", "instructions_executed", "vector_instructions",
            "scalar_instructions", "vector_memory_ops",
            "scalar_memory_ops", "flops")

#: c240 timing ablations, one per branch of the timing rules
C240_VARIANTS = {
    "no-refresh": DEFAULT_CONFIG.without_refresh(),
    "no-bubbles": DEFAULT_CONFIG.without_bubbles(),
    "no-chaining": DEFAULT_CONFIG.without_chaining(),
    "scalar-cache": DEFAULT_CONFIG.with_scalar_cache(),
    "contention-1.5": DEFAULT_CONFIG.with_contention(1.5),
    "vl-floor-16": DEFAULT_CONFIG.replace(
        timings=DEFAULT_CONFIG.timings.with_vl_floor(16)
    ),
}


def configs():
    """Table column name -> machine config."""
    table = {name: builtin_machine(name).config for name in builtin_names()}
    table.update({f"c240/{name}": config
                  for name, config in C240_VARIANTS.items()})
    return table


def simulate(name, config, record_trace=False):
    spec = workload(name)
    compiled = compile_spec(spec, tuned_options(DEFAULT_OPTIONS, config))
    return prepare_simulator(spec, compiled, config).run(
        record_trace=record_trace
    )


def row(result):
    return [getattr(result, counter) for counter in COUNTERS]


@pytest.fixture(scope="module")
def golden():
    return json.loads(TABLE.read_text(encoding="utf-8"))


def test_table_covers_every_config_and_workload(golden):
    assert sorted(golden) == sorted(configs())
    for column in golden.values():
        assert sorted(column) == sorted(workload_names())


@pytest.mark.parametrize("column", sorted(configs()))
def test_cycles_and_counters_match_the_table(golden, column):
    config = configs()[column]
    for name in workload_names():
        assert row(simulate(name, config)) == golden[column][name], name


@pytest.mark.parametrize("column", ["c240", "c240/no-chaining"])
def test_trace_recording_keeps_the_cycles(golden, column):
    config = configs()[column]
    for name in workload_names():
        result = simulate(name, config, record_trace=True)
        assert row(result) == golden[column][name], name
        assert len(result.trace) == result.instructions_executed
        assert max(t.complete for t in result.trace) <= result.cycles


def record() -> str:
    """The table as JSON text, one workload row per line."""
    columns = []
    for column, config in sorted(configs().items()):
        rows = ",\n".join(
            f"  {json.dumps(name)}: {json.dumps(row(simulate(name, config)))}"
            for name in workload_names()
        )
        columns.append(f" {json.dumps(column)}: {{\n{rows}\n }}")
    return "{\n" + ",\n".join(columns) + "\n}\n"


if __name__ == "__main__":
    TABLE.parent.mkdir(exist_ok=True)
    TABLE.write_text(record(), encoding="utf-8")
    sys.exit(0)

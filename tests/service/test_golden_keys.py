"""Golden content-key table: absolute request, task and machine keys.

Pins the exact key strings that the durable L1 log, the fleet's L2
files, sweep checkpoints and fleet ring placement are all addressed
by: ``canonicalize(kind, params).key`` for every keyed kind over every
workload and option variant, each kind on lfk1 with each shipped
machine, a problem-size override and a cycle budget, one ``report``
and one ``sweep`` key, ``SweepTask`` keys on each shipped machine and
c240 ablation, each machine's content digest, and the
``with_contention(2)``/``with_contention(2.0)`` pair (equal values
whose canonical JSON differs).

The params are built directly rather than through
``make_population``, which would compute every body.  Regenerate the
table (only when a key change is intended and versioned) with::

    PYTHONPATH=src python tests/service/test_golden_keys.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.machine import DEFAULT_CONFIG
from repro.machines import builtin_machine, builtin_names
from repro.service.protocol import canonicalize
from repro.sweep.spec import OPTION_VARIANTS, SweepTask, digest
from repro.workloads import workload_names

TABLE = Path(__file__).parent / "data" / "golden_keys.json"

#: every kind whose key derives from kernel/options/machine params
KERNEL_KINDS = ("run", "bound", "mac", "ax", "lint", "analyze", "advise")

#: the c240 ablations the golden cycle table simulates
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


def request_params() -> dict[str, tuple[str, dict]]:
    """Table label -> (kind, raw request params)."""
    table: dict[str, tuple[str, dict]] = {}
    for kind in KERNEL_KINDS:
        for kernel in workload_names():
            for variant in OPTION_VARIANTS:
                table[f"{kind} {kernel} variant={variant}"] = (
                    kind, {"kernel": kernel, "variant": variant}
                )
        for machine in builtin_names():
            table[f"{kind} lfk1 machine={machine}"] = (
                kind, {"kernel": "lfk1", "machine": machine}
            )
        table[f"{kind} lfk1 n=2048"] = (kind, {"kernel": "lfk1", "n": 2048})
        table[f"{kind} lfk1 max_cycles=5000"] = (
            kind, {"kernel": "lfk1", "max_cycles": 5000}
        )
    table["report table1,figure1"] = (
        "report", {"experiments": ["table1", "figure1"]}
    )
    table["sweep lfk1,lfk12 default,reuse"] = (
        "sweep", {"kernels": ["lfk1", "lfk12"],
                  "variants": ["default", "reuse"]}
    )
    return table


def task_configs() -> dict:
    """Table label -> machine config for ``SweepTask("lfk1")`` keys."""
    table = {name: builtin_machine(name).config for name in builtin_names()}
    table.update({f"c240/{name}": config
                  for name, config in C240_VARIANTS.items()})
    return table


def contention_pair() -> dict:
    """Equal configs whose canonical JSON differs (``2`` vs ``2.0``)."""
    return {"2": DEFAULT_CONFIG.with_contention(2),
            "2.0": DEFAULT_CONFIG.with_contention(2.0)}


def record() -> dict:
    """Every pinned key, freshly computed."""
    return {
        "requests": {label: canonicalize(kind, params).key
                     for label, (kind, params)
                     in request_params().items()},
        "tasks": {label: SweepTask("lfk1", config=config).key
                  for label, config in task_configs().items()},
        "machines": {name: builtin_machine(name).digest
                     for name in builtin_names()},
        "contention": {label: digest(config)
                       for label, config in contention_pair().items()},
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(TABLE.read_text(encoding="utf-8"))


def test_table_covers_every_key(golden):
    assert sorted(golden["requests"]) == sorted(request_params())
    assert sorted(golden["tasks"]) == sorted(task_configs())
    assert sorted(golden["machines"]) == sorted(builtin_names())
    assert sorted(golden["contention"]) == sorted(contention_pair())


@pytest.mark.parametrize("kind", KERNEL_KINDS + ("report", "sweep"))
def test_request_keys_match_the_table(golden, kind):
    for label, (kind_, params) in request_params().items():
        if kind_ == kind:
            assert canonicalize(kind, params).key == \
                golden["requests"][label], label


def test_task_keys_match_the_table(golden):
    for label, config in task_configs().items():
        assert SweepTask("lfk1", config=config).key == \
            golden["tasks"][label], label


def test_machine_digests_match_the_table(golden):
    for name in builtin_names():
        assert builtin_machine(name).digest == golden["machines"][name]


def test_equal_configs_with_distinct_json_keep_distinct_keys(golden):
    pair = golden["contention"]
    assert pair["2"] != pair["2.0"]
    for label, config in contention_pair().items():
        assert digest(config) == pair[label]


if __name__ == "__main__":
    TABLE.parent.mkdir(exist_ok=True)
    TABLE.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n",
                     encoding="utf-8")
    sys.exit(0)

"""One piece of work, one answer: on every shipped machine an offline
``sweep`` cell and an ``advise`` body agree with the ``run`` body for
the same kernel.

Each kind tunes its compiler options to the machine the same way, so
on a machine whose vector registers are shorter than 128 elements (the
64-element ``cray-nochain``) the sweep cell runs the same strip length
as ``run`` and reports the same key and cycles, and ``advise`` reports
the run's own metrics, ``cycles_per_vector_iteration`` included.
"""

import json

import pytest

from repro.machines import builtin_names
from repro.service.client import offline_response


def _offline(kind: str, params: dict) -> dict:
    response = offline_response(kind, params)
    assert response.ok, response.error
    return response.body


@pytest.mark.parametrize("machine", builtin_names())
def test_sweep_cell_matches_run(machine):
    run = _offline("run", {"kernel": "lfk1", "machine": machine})
    sweep = _offline("sweep", {"kernels": ["lfk1"], "machine": machine})
    (cell,) = [json.loads(line)
               for line in sweep["results_jsonl"].splitlines()]
    assert cell["key"] == run["key"]
    assert cell["metrics"]["cycles"] == run["metrics"]["cycles"]
    assert cell["metrics"] == run["metrics"]


@pytest.mark.parametrize("machine", builtin_names())
def test_advise_metrics_match_run(machine):
    params = {"kernel": "lfk1", "machine": machine}
    assert _offline("advise", params)["metrics"] == \
        _offline("run", params)["metrics"]

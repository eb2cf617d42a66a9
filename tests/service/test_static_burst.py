"""Replay the recorded advise burst and compare it with ``run``.

``data/advise_burst.ndjson`` is a recorded burst of ``advise``
request frames covering every built-in workload plus problem-size
and compiler-variant variations (two frames still carry the retired
``no_fastpath`` parameter, which ``canonicalize`` ignores, so they are
served as defaults).  Every frame is answered through the worker
entry point and replayed as a ``run`` request for the same kernel,
options, ``n`` and ``max_cycles``: ``advise`` takes ``t_p`` and the
six counters from the same simulation, so the cycles and counters of
the two bodies must be equal.
"""

import json
from pathlib import Path

import pytest

from repro.service.jobs import execute_request
from repro.service.protocol import canonicalize

BURST_PATH = Path(__file__).parent / "data" / "advise_burst.ndjson"

#: The counters both bodies carry under ``metrics``.
COUNTERS = (
    "instructions",
    "vector_instructions",
    "scalar_instructions",
    "vector_memory_ops",
    "scalar_memory_ops",
    "flops",
)


def load_burst():
    frames = []
    for line in BURST_PATH.read_text().splitlines():
        if line.strip():
            frames.append(json.loads(line))
    return frames


def run_payload(payload):
    """The ``run`` payload for the same kernel, options, machine and
    sizes as one ``advise`` payload."""
    replay = {
        "kind": "run",
        "kernel": payload["kernel"],
        "options": payload.get("options") or {},
    }
    for name in ("machine", "max_cycles", "n"):
        if payload.get(name) is not None:
            replay[name] = payload[name]
    return replay


def test_burst_covers_every_workload():
    from repro.workloads import ALL_WORKLOADS

    kernels = {f["params"]["kernel"] for f in load_burst()}
    assert kernels == {spec.name for spec in ALL_WORKLOADS}


def test_burst_advise_equals_run():
    frames = load_burst()
    assert frames, "recorded burst must not be empty"
    for frame in frames:
        request = canonicalize(frame["kind"], dict(frame["params"]))
        advised = execute_request(request.payload)
        assert advised["status"] == "ok", (frame, advised)
        replayed = execute_request(run_payload(request.payload))
        assert replayed["status"] == "ok", (frame, replayed)
        exact = replayed["body"]["metrics"]
        assert advised["body"]["cycles"] == exact["cycles"], frame
        for name in COUNTERS:
            assert advised["body"]["metrics"][name] == exact[name], \
                (frame, name)


def test_burst_bodies_are_deterministic():
    frames = load_burst()[:3]
    for frame in frames:
        request = canonicalize(frame["kind"], dict(frame["params"]))
        first = execute_request(request.payload)
        second = execute_request(request.payload)
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )


@pytest.mark.parametrize("index", range(3))
def test_burst_frames_canonicalize_stably(index):
    frame = load_burst()[index]
    a = canonicalize(frame["kind"], dict(frame["params"]))
    b = canonicalize(frame["kind"], dict(frame["params"]))
    assert a.key == b.key
    assert a.payload == b.payload

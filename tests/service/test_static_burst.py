"""Replay the recorded advise burst through the static path.

``data/advise_burst.ndjson`` is a recorded burst of ``advise``
request frames covering every built-in workload plus problem-size
and compiler-variant variations (two frames still carry the retired
``no_fastpath`` parameter, which ``canonicalize`` ignores, so they are
served as defaults).  The CI ``static-tier``
job runs this module: every frame is answered by the static tier and
then replayed **exactly** through the same worker entry point the
server's calibration loop uses; the agreement ledger over the whole
burst must stay within the documented 1% cycle-error gate
(``DEFAULT_AGREEMENT_GATE``), with zero exact-tier flags.
"""

import json
from pathlib import Path

import pytest

from repro.service import (
    DEFAULT_AGREEMENT_GATE,
    AgreementLedger,
    CalibrationSampler,
    ledger_summary,
)
from repro.service.jobs import execute_request
from repro.service.protocol import canonicalize

BURST_PATH = Path(__file__).parent / "data" / "advise_burst.ndjson"


def load_burst():
    frames = []
    for line in BURST_PATH.read_text().splitlines():
        if line.strip():
            frames.append(json.loads(line))
    return frames


def exact_replay_payload(payload):
    """The calibration loop's exact replay of one advise payload."""
    run_payload = {
        "kind": "run",
        "kernel": payload["kernel"],
        "options": payload.get("options") or {},
    }
    for name in ("max_cycles", "n"):
        if payload.get(name) is not None:
            run_payload[name] = payload[name]
    return run_payload


def test_burst_covers_every_workload():
    from repro.workloads import ALL_WORKLOADS

    kernels = {f["params"]["kernel"] for f in load_burst()}
    assert kernels == {spec.name for spec in ALL_WORKLOADS}


def test_burst_agreement_stays_within_the_gate(tmp_path):
    frames = load_burst()
    assert frames, "recorded burst must not be empty"
    ledger = AgreementLedger(str(tmp_path / "agreement.jsonl"))
    sampler = CalibrationSampler(
        every=1, gate=DEFAULT_AGREEMENT_GATE, ledger=ledger
    )
    for frame in frames:
        request = canonicalize(frame["kind"], dict(frame["params"]))
        static = execute_request(request.payload)
        assert static["status"] == "ok", (frame, static)
        exact = execute_request(exact_replay_payload(request.payload))
        assert exact["status"] == "ok", (frame, exact)
        sampler.judge(
            request.payload["kernel"],
            request.key,
            static["body"],
            exact["body"]["metrics"],
        )
    ledger.close()

    records = AgreementLedger(str(tmp_path / "agreement.jsonl")).load()
    assert len(records) == len(frames)
    summary = ledger_summary(records)
    assert summary["checks"] == len(frames)
    # The CI gate: >1% cycle-bound error vs exact replays fails.
    assert summary["max_rel_error"] <= DEFAULT_AGREEMENT_GATE, summary
    assert summary["breaches"] == 0, summary
    assert summary["flagged"] == 0, summary
    assert summary["counter_mismatches"] == 0, summary
    assert not sampler.flagged


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

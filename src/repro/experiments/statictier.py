"""Static tier: every kernel's ``advise`` answer against its ``run``.

Builds each built-in workload's ``advise`` body
(:func:`repro.model.predict_kernel`) and replays the kernel through
the service worker entry point
(:func:`repro.service.jobs.execute_request`, ``kind="run"``), then
compares the cycles and the six counters of the two bodies directly.
``advise`` takes ``t_p`` and the counters from the same memoized
simulation as ``run``, so every relative error is 0 and every counter
matches; any difference is a defect in how one of the bodies is
built.  The title and notes keep the wording they had when ``advise``
had a predictor of its own, because ``experiment all`` output is
pinned by digest (``perfbench/expected.json``).
"""

from __future__ import annotations

from ..model import predict_kernel
from ..service.jobs import execute_request
from ..workloads import ALL_WORKLOADS
from .formatting import ExperimentResult, TextTable

#: The counters both bodies carry under ``metrics``.
COUNTERS = (
    "instructions",
    "vector_instructions",
    "scalar_instructions",
    "vector_memory_ops",
    "scalar_memory_ops",
    "flops",
)


def run_static_tier() -> ExperimentResult:
    table = TextTable(
        [
            "kernel", "tier", "static cyc", "exact cyc",
            "rel err", "counters", "verdict",
        ]
    )
    rows: list[dict] = []
    for spec in ALL_WORKLOADS:
        advised = predict_kernel(spec.name).to_payload()
        replay = execute_request({"kind": "run", "kernel": spec.name})
        if replay["status"] != "ok":
            raise RuntimeError(
                f"exact replay of {spec.name} failed: "
                f"{replay['error']['message']}"
            )
        exact = replay["body"]["metrics"]
        static_cycles = advised["cycles"]
        rel_error = abs(static_cycles - exact["cycles"]) / exact["cycles"]
        counters_match = all(
            advised["metrics"][name] == exact[name] for name in COUNTERS
        )
        verdict = "ok" if rel_error == 0 and counters_match else "flagged"
        rows.append(
            {
                "kernel": spec.name,
                "tier": advised["tier"],
                "rel_error": rel_error,
                "counters_match": counters_match,
                "verdict": verdict,
            }
        )
        table.add_row(
            spec.name,
            advised["tier"],
            f"{static_cycles:.0f}",
            f"{exact['cycles']:.0f}",
            f"{rel_error:.2%}",
            "match" if counters_match else "MISMATCH",
            verdict,
        )
    flagged = [row for row in rows if row["verdict"] != "ok"]
    notes = [
        "gate: 1% relative cycle error (DEFAULT_AGREEMENT_GATE); "
        "exact-tier predictions must show 0 error",
        f"{len(rows)} kernels checked, {len(flagged)} gate breaches, "
        f"max rel error {max(row['rel_error'] for row in rows):.2%}",
    ]
    if flagged:
        notes.append(
            "FLAGGED: an exact-tier prediction diverged from the "
            "simulator — a predictor defect"
        )
    return ExperimentResult(
        artifact="Static tier",
        title="abstract-interpretation predictor vs exact simulation",
        body=table.render(),
        notes=notes,
        data={"rows": rows, "flagged": bool(flagged)},
    )

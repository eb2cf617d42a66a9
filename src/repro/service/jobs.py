"""The worker-side entry point for service requests.

:func:`execute_request` is the single picklable function the server
submits to its persistent :class:`~repro.sweep.pool.WorkerPool`.  It
receives a canonical payload (:class:`~repro.service.protocol.Request`
``.payload``) plus the pool's ``attempt`` number, computes the body,
and returns a plain dict::

    {"status": "ok", "body": {...}}
    {"status": "error",
     "error": {"code": "workload", "exit_code": 3, "type": "...",
               "message": "..."}}

Deterministic domain failures come back as typed ``error`` payloads
(they would fail identically on retry); unexpected exceptions
propagate so the pool's crash/retry supervision engages.  Bodies are
fully deterministic: the same payload always produces byte-identical
``json.dumps(body, sort_keys=True)`` output, whether computed in a
worker, inline by an offline client, or replayed from the cache.

The ``_inject`` payload field is the chaos hook: ``{"kind": "exit",
"attempts": 1}`` makes attempt 1 kill its worker process (and so
forth), exactly like the sweep scheduler's ``inject_faults`` — how the
chaos suite proves a killed worker is retried without the client ever
seeing an error.
"""

from __future__ import annotations

import os
import time

from ..errors import ReproError
from .protocol import (
    ERROR_EXIT_CODES,
    options_from_dict,
    taxonomy_error_code,
)


def _config_from_payload(payload: dict):
    from ..machine import DEFAULT_CONFIG

    machine_name = payload.get("machine")
    if machine_name is not None:
        from ..machines import builtin_machine

        config = builtin_machine(str(machine_name)).config
    else:
        config = DEFAULT_CONFIG
    if payload.get("max_cycles") is not None:
        config = config.with_cycle_budget(float(payload["max_cycles"]))
    return config


def _compute_task_kind(payload: dict) -> dict:
    """``run`` / ``bound`` / ``mac`` — one sweep-engine cell."""
    from ..sweep.scheduler import _compute_metrics
    from ..sweep.spec import SweepTask

    task = SweepTask(
        workload=payload["kernel"],
        options=options_from_dict(payload.get("options") or {}),
        config=_config_from_payload(payload),
        n=payload.get("n"),
        mode=payload["kind"],
    )
    return {
        "kernel": payload["kernel"],
        "mode": payload["kind"],
        "key": task.key,
        "metrics": _compute_metrics(task),
    }


def _compute_ax(payload: dict) -> dict:
    from ..model import measure_ax
    from ..workloads import compile_spec, workload

    spec = workload(payload["kernel"])
    options = options_from_dict(payload.get("options") or {})
    compiled = compile_spec(spec, options)
    measurement = measure_ax(
        spec, compiled, _config_from_payload(payload)
    )
    return {
        "kernel": payload["kernel"],
        "t_a_cpl": measurement.t_a_cpl,
        "t_x_cpl": measurement.t_x_cpl,
        "overlap_lower_cpl": measurement.overlap_lower_bound(),
        "overlap_upper_cpl": measurement.overlap_upper_bound(),
    }


def _compute_lint(payload: dict) -> dict:
    from ..analysis import LintOptions, Severity, lint_program
    from ..workloads import compile_spec, workload

    spec = workload(payload["kernel"])
    compiled = compile_spec(spec)
    findings = lint_program(
        compiled.program,
        LintOptions(trips=tuple(spec.trip_profile)),
    )
    minimum = Severity.parse(payload.get("min_severity", "info"))
    return {
        "kernel": payload["kernel"],
        "errors": sum(
            1 for f in findings if f.severity >= Severity.ERROR
        ),
        "findings": [
            f.to_dict() for f in findings if f.severity >= minimum
        ],
    }


def _compute_analyze(payload: dict) -> dict:
    from ..model import analyze_kernel
    from ..workloads import workload

    analysis = analyze_kernel(
        workload(payload["kernel"]),
        options=options_from_dict(payload.get("options") or {}),
        config=_config_from_payload(payload),
    )
    return {
        "kernel": payload["kernel"],
        "report": analysis.report(),
        "macs_cpl": analysis.macs.cpl,
        "t_p_cpl": analysis.t_p_cpl,
    }


def _compute_advise(payload: dict) -> dict:
    """MACS bounds and advice around the kernel's memoized run."""
    from ..model import predict_kernel

    prediction = predict_kernel(
        payload["kernel"],
        options=options_from_dict(payload.get("options") or {}),
        config=_config_from_payload(payload),
        n=payload.get("n"),
    )
    return prediction.to_payload()


def _compute_report(payload: dict) -> dict:
    from ..experiments.report import report_payload

    names = payload.get("experiments") or None
    return report_payload(names)


def _compute_sweep(payload: dict) -> dict:
    from ..sweep import OPTION_VARIANTS, SweepSpec, run_sweep

    variants = {
        name: OPTION_VARIANTS[name]
        for name in payload.get("variants", ["default"])
    }
    config_tag = str(payload.get("machine") or "base")
    spec = SweepSpec.build(
        payload["kernels"],
        variants=variants,
        configs={config_tag: _config_from_payload(payload)},
    )
    result = run_sweep(spec, jobs=1)
    return {
        "kernels": list(payload["kernels"]),
        "variants": sorted(variants),
        "results_jsonl": result.results_jsonl(),
        "table": result.table(),
    }


_COMPUTE = {
    "run": _compute_task_kind,
    "bound": _compute_task_kind,
    "mac": _compute_task_kind,
    "ax": _compute_ax,
    "lint": _compute_lint,
    "analyze": _compute_analyze,
    "advise": _compute_advise,
    "report": _compute_report,
    "sweep": _compute_sweep,
}


def execute_request(payload: dict, attempt: int = 1) -> dict:
    """Compute one canonical request payload (worker entry point)."""
    inject = payload.get("_inject")
    if inject is not None and attempt <= int(inject["attempts"]):
        kind = inject["kind"]
        if kind == "raise":
            raise RuntimeError(
                f"injected fault: raise (attempt {attempt})"
            )
        if kind == "exit":
            os._exit(17)
        time.sleep(600.0)  # kind == "hang"
    compute = _COMPUTE[payload["kind"]]
    try:
        return {"status": "ok", "body": compute(payload)}
    except ReproError as exc:
        code = taxonomy_error_code(exc)
        return {
            "status": "error",
            "error": {
                "code": code,
                "exit_code": ERROR_EXIT_CODES[code],
                "type": type(exc).__name__,
                "message": str(exc),
            },
        }

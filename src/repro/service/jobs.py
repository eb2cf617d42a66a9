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

Every compute kind turns its payload back into the kernel spec,
compiler options and machine config through one function,
:func:`_resolve`.  The payload's options are already tuned to its
machine (:func:`~repro.service.protocol.canonicalize` tunes them once),
so no compute kind tunes them itself.

Deterministic domain failures come back as typed ``error`` payloads
(they would fail identically on retry); unexpected exceptions
propagate so the pool's crash/retry supervision engages.  Bodies are
fully deterministic: the same payload always produces byte-identical
``json.dumps(body, sort_keys=True)`` output, whether computed in a
worker, inline by an offline client, or replayed from the cache.

The ``_inject`` payload field is the chaos hook: ``{"kind": "exit",
"attempts": 1}`` makes attempt 1 kill its worker process (and so
forth) through :func:`~repro.resilience.faults.inject_worker_fault`,
the switch the sweep scheduler's ``inject_faults`` uses too — how the
chaos suite proves a killed worker is retried without the client ever
seeing an error.
"""

from __future__ import annotations

from ..errors import ReproError
from ..machine import DEFAULT_CONFIG
from ..machines import builtin_machine
from ..resilience.faults import inject_worker_fault
from .protocol import (
    ERROR_EXIT_CODES,
    options_from_dict,
    taxonomy_error_code,
)


def _resolve(payload: dict):
    """The ``(spec, options, config)`` a canonical payload names.

    ``spec`` is the kernel at its problem size ``n`` (None for a
    ``sweep``, which names several), ``options`` the compiler options
    and ``config`` the machine with its ``max_cycles`` budget.  Every
    compute kind but ``report``, which reads none of them, reads its
    inputs through here.
    """
    from ..workloads import workload
    from ..workloads.runner import sized_spec

    spec = None
    if "kernel" in payload:
        spec = workload(payload["kernel"])
        if payload.get("n") is not None:
            spec = sized_spec(spec, payload["n"])
    machine = payload.get("machine")
    config = DEFAULT_CONFIG if machine is None \
        else builtin_machine(str(machine)).config
    if payload.get("max_cycles") is not None:
        config = config.with_cycle_budget(float(payload["max_cycles"]))
    options = options_from_dict(payload.get("options") or {})
    return spec, options, config


def _compute_task_kind(payload: dict) -> dict:
    """``run`` / ``bound`` / ``mac`` — one sweep-engine cell."""
    from ..sweep.scheduler import _compute_metrics
    from ..sweep.spec import SweepTask

    spec, options, config = _resolve(payload)
    task = SweepTask(
        workload=payload["kernel"], options=options, config=config,
        n=payload.get("n"), mode=payload["kind"],
    )
    return {
        "kernel": payload["kernel"],
        "mode": payload["kind"],
        "key": task.key,
        "metrics": _compute_metrics(task, spec),
    }


def _compute_ax(payload: dict) -> dict:
    from ..model import measure_ax
    from ..workloads import compile_spec

    spec, options, config = _resolve(payload)
    measurement = measure_ax(spec, compile_spec(spec, options), config)
    return {
        "kernel": payload["kernel"],
        "t_a_cpl": measurement.t_a_cpl,
        "t_x_cpl": measurement.t_x_cpl,
        "overlap_lower_cpl": measurement.overlap_lower_bound(),
        "overlap_upper_cpl": measurement.overlap_upper_bound(),
    }


def _compute_lint(payload: dict) -> dict:
    from ..analysis import LintOptions, Severity, lint_program
    from ..workloads import compile_spec

    spec, options, _config = _resolve(payload)
    findings = lint_program(
        compile_spec(spec, options).program,
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

    spec, options, config = _resolve(payload)
    analysis = analyze_kernel(spec, options=options, config=config)
    return {
        "kernel": payload["kernel"],
        "report": analysis.report(),
        "macs_cpl": analysis.macs.cpl,
        "t_p_cpl": analysis.t_p_cpl,
    }


def _compute_advise(payload: dict) -> dict:
    """MACS bounds and advice around the kernel's memoized run."""
    from ..model import predict_kernel

    return predict_kernel(*_resolve(payload)).to_payload()


def _compute_report(payload: dict) -> dict:
    from ..experiments.report import report_payload

    names = payload.get("experiments") or None
    return report_payload(names)


def _compute_sweep(payload: dict) -> dict:
    from ..sweep import OPTION_VARIANTS, SweepSpec, run_sweep

    _spec, _options, config = _resolve(payload)
    variants = {
        name: OPTION_VARIANTS[name]
        for name in payload.get("variants", ["default"])
    }
    config_tag = str(payload.get("machine") or "base")
    spec = SweepSpec.build(
        payload["kernels"], variants=variants,
        configs={config_tag: config},
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
    if inject is not None:
        inject_worker_fault(inject["kind"], int(inject["attempts"]),
                            attempt)
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

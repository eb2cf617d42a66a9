"""``repro.service`` — the batching MACS analysis server.

Turns the reproduction from a CLI into a long-running system: a
newline-delimited-JSON server (``macs-repro serve``) that accepts typed
analysis requests — MACS bounds, A/X measurements, lint, full
per-kernel reports, sweep grids — canonicalizes them into the sweep
engine's content-digest keys, executes them on a persistent
:class:`~repro.sweep.pool.WorkerPool`, and serves concurrent duplicates
from one computation (single-flight: one task per content key in
flight) backed by a bounded in-process L1 memo and, with ``--l2``, a
shared on-disk L2 that a restarted replica comes back warm from.

Public surface:

* :mod:`~repro.service.protocol` — request/response schemas,
  canonicalization, NDJSON framing (:func:`canonicalize`,
  :class:`Request`, :class:`Response`, :func:`render_body`);
* :mod:`~repro.service.server` — :class:`AnalysisServer`,
  :class:`ServiceConfig`, :func:`serve`, :func:`start_in_thread`;
* :mod:`~repro.service.client` — :class:`ServiceClient`,
  :func:`offline_response`;
* :mod:`~repro.service.admission` — :class:`AdmissionController`;
* :mod:`~repro.service.metrics` — :class:`ServiceMetrics`;
* :mod:`~repro.service.jobs` — :func:`execute_request`, the picklable
  worker entry point.

The ``advise`` request kind is the *static tier*: a worker computes
its body with :func:`repro.model.predict_kernel` — the MACS hierarchy
plus ``t_p`` from the kernel's memoized run, the same simulation a
``run`` request for the same kernel, options and machine reads.

Submodules load lazily, so importing this package never drags asyncio
machinery into the base import graph.
"""

from __future__ import annotations

_EXPORTS = {
    "Request": "protocol",
    "Response": "protocol",
    "canonicalize": "protocol",
    "render_body": "protocol",
    "REQUEST_KINDS": "protocol",
    "CONTROL_KINDS": "protocol",
    "execute_request": "jobs",
    "AdmissionController": "admission",
    "ServiceMetrics": "metrics",
    "AnalysisServer": "server",
    "ServiceConfig": "server",
    "serve": "server",
    "start_in_thread": "server",
    "ServiceClient": "client",
    "offline_response": "client",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value

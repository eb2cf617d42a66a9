"""Wire protocol and request canonicalization for the analysis server.

**Framing.**  Both directions speak newline-delimited JSON: one request
or response object per ``\\n``-terminated line, UTF-8, no length
prefix.  A connection may pipeline many requests; responses carry the
request ``id`` and may arrive out of order.  A string or integer ``id``
comes back unchanged, a missing or ``null`` one is replaced by an
``auto-N`` string, and any other value is a ``usage`` error
(:func:`frame_id`).

**Request envelope**::

    {"id": "r1", "kind": "bound", "params": {"kernel": "lfk1"}}

``kind`` is one of the compute kinds (:data:`REQUEST_KINDS` — ``run``,
``bound``, ``mac``, ``ax``, ``lint``, ``analyze``, ``advise``,
``report``, ``sweep``) or a control kind handled by the frontend
without touching the worker pool (:data:`CONTROL_KINDS` — ``ping``,
``healthz``, ``metrics``, ``drain``).  ``deadline_s`` (optional, top
level) bounds the request's wall clock.  A cold compute request,
``advise`` included, is a worker-pool job.

**Response envelope**::

    {"id": "r1", "status": "ok", "kind": "bound", "key": "...",
     "origin": "computed", "elapsed_ms": 1.87, "body": {...}}

``status`` is ``ok`` | ``error`` (typed domain failure, carries
``error.exit_code`` from the CLI taxonomy) | ``rejected`` (admission
control, carries ``error.retry_after_s``).  ``origin`` says how the
body was produced: ``computed`` (this request ran a worker job),
``coalesced`` (attached to an identical in-flight request),
``cache`` (served from the result cache), or ``offline`` (client-side
execution, no server).  The **body is deterministic** — byte-identical
for any origin — while the envelope (origin, timing) is not.

**Canonicalization.**  :func:`canonicalize` validates raw params,
resolves compiler-option variants and machine-config switches, and
produces a :class:`Request` whose ``key`` is a content digest: ``run``
/ ``bound`` / ``mac`` requests reuse the sweep engine's
:class:`~repro.sweep.spec.SweepTask` keys verbatim, everything else
digests its canonical payload with the same
:func:`~repro.sweep.spec.digest`.  Two requests with the same key
compute the same result — that is the contract single-flight dedup and
the result cache are built on.  The six kernel kinds (``run``,
``bound``, ``mac``, ``ax``, ``analyze``, ``advise``) share one code
path, which resolves the kernel, machine and options once and tunes
the options to the machine (:func:`~repro.machines.tuned_options`)
exactly as :meth:`~repro.sweep.spec.SweepSpec.expand` tunes a sweep
cell.

Each process derives a given (kind, params) once: :func:`canonicalize`
keeps the validated :class:`Request` in a bounded LRU keyed by a
digest of ``json.dumps([kind, params], sort_keys=True)``, and a repeat
returns the stored request.  Malformed requests raise on every
call and are never stored.  The memo is a :class:`~repro.memo.Memo`,
so ``clear_caches()`` empties it and forked workers start without it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from dataclasses import dataclass, field

from ..compiler.options import (
    DEFAULT_OPTIONS,
    CompilerOptions,
    ReductionStyle,
    parse_options_string,
)
from ..errors import (
    BudgetExceededError,
    ExperimentError,
    MachineError,
    MachineFileError,
    ReproError,
    StoreError,
    WorkloadError,
)
from ..machine import DEFAULT_CONFIG, MachineConfig
from ..machines import builtin_machine, tuned_options
from ..memo import Memo
from ..resilience.faults import WORKER_KINDS
from ..sweep.spec import OPTION_VARIANTS, SweepTask, digest

#: Compute kinds (keyed and cached; a cold one is a worker-pool job).
REQUEST_KINDS = (
    "run", "bound", "mac", "ax", "lint", "analyze", "advise",
    "report", "sweep",
)
#: Control kinds (answered by the frontend, never queued or cached).
CONTROL_KINDS = ("ping", "healthz", "metrics", "drain")
#: Compute kinds derived from a kernel, its options and a machine.
_KERNEL_KINDS = ("run", "bound", "mac", "ax", "analyze", "advise")
#: Kernel kinds that read a problem size ``n``.
_SIZED_KINDS = ("run", "bound", "mac", "advise")
#: Kernel kinds keyed like a sweep cell (:class:`SweepTask` keys).
_TASK_KINDS = ("run", "bound", "mac")

#: Severity order for lint requests (mirrors repro.analysis.Severity).
_SEVERITIES = ("info", "warning", "error")

#: Protocol error codes -> CLI exit codes (docs/robustness.md).
ERROR_EXIT_CODES = {
    "usage": 2,
    "workload": 3,
    "simulation": 4,
    "budget": 4,
    "infrastructure": 5,
    "unavailable": 6,
}


def taxonomy_error_code(exc: ReproError) -> str:
    """Map a taxonomy exception to a protocol error code."""
    if isinstance(exc, (MachineError, BudgetExceededError)):
        return "budget" if isinstance(exc, BudgetExceededError) \
            else "simulation"
    if isinstance(exc, (ExperimentError, StoreError)):
        return "infrastructure"
    return "workload"


class ProtocolError(ReproError):
    """Raised for malformed requests (maps to the ``usage`` code)."""


def positive_real(name: str, value) -> float:
    """``value`` as a finite positive float (a JSON number, not a bool).

    Deadlines and cycle budgets both go through here, so a string,
    zero, a negative, ``NaN`` or an infinity is a ``usage`` error
    before the request reaches the queue.
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool) \
            and 0 < value <= sys.float_info.max:
        return float(value)
    raise ProtocolError(
        f"{name} must be a finite positive number, got {value!r}"
    )


# ----------------------------------------------------------------------
# Compiler-option / machine-config canonical forms
# ----------------------------------------------------------------------


def options_to_dict(options: CompilerOptions) -> dict:
    """Non-default option fields as a plain JSON-able dict."""
    changes: dict = {}
    for f in dataclasses.fields(options):
        value = getattr(options, f.name)
        if value != getattr(DEFAULT_OPTIONS, f.name):
            changes[f.name] = (
                value.value if isinstance(value, ReductionStyle)
                else value
            )
    return changes


def options_from_dict(changes: dict) -> CompilerOptions:
    """Rebuild :class:`CompilerOptions` from :func:`options_to_dict`."""
    known = {f.name for f in dataclasses.fields(DEFAULT_OPTIONS)}
    resolved: dict = {}
    for name, value in changes.items():
        if name not in known:
            raise ProtocolError(
                f"unknown compiler option {name!r}; known: "
                f"{', '.join(sorted(known))}"
            )
        if isinstance(getattr(DEFAULT_OPTIONS, name), ReductionStyle):
            value = ReductionStyle(value)
        resolved[name] = value
    return DEFAULT_OPTIONS.replace(**resolved)


def resolve_options(params: dict) -> CompilerOptions:
    """Resolve ``variant``/``options`` request params to options.

    ``variant`` names one of the sweep engine's
    :data:`~repro.sweep.spec.OPTION_VARIANTS`; ``options`` is a
    ``"key=value,..."`` string (the CLI ``--options`` syntax).  The two
    are mutually exclusive.
    """
    variant = params.get("variant")
    text = params.get("options")
    if variant is not None and text is not None:
        raise ProtocolError(
            "'variant' and 'options' are mutually exclusive"
        )
    if variant is not None:
        resolved = OPTION_VARIANTS.get(str(variant))
        if resolved is None:
            raise ProtocolError(
                f"unknown option variant {variant!r}; known: "
                f"{', '.join(OPTION_VARIANTS)}"
            )
        return resolved
    if text is not None:
        try:
            return parse_options_string(str(text))
        except (ValueError, ReproError) as exc:
            raise ProtocolError(str(exc)) from None
    return DEFAULT_OPTIONS


def resolve_machine(params: dict):
    """The machine description a request targets, or ``None``.

    Only built-in names travel over the wire — a client-side machine
    *file* is the offline client's business; the server resolves names
    against its own shipped registry so both sides key on the same
    content digest.
    """
    name = params.get("machine")
    if name is None:
        return None
    if not isinstance(name, str):
        raise ProtocolError(
            f"'machine' must be a built-in machine name, got {name!r}"
        )
    try:
        return builtin_machine(name)
    except MachineFileError as exc:
        raise ProtocolError(str(exc)) from None


def _machine_params(params: dict) -> tuple[MachineConfig, dict]:
    """The machine config a request targets (with its ``max_cycles``
    budget) and the canonical payload fields that identify it.

    A machine is identified by *name and content digest*: the digest
    joins every derived request key, so two machines that merely share
    a name (say, a server and client with different registry versions)
    can never collide in a cache tier.
    """
    config = DEFAULT_CONFIG
    payload: dict = {}
    description = resolve_machine(params)
    if description is not None:
        config = description.config
        payload["machine"] = description.name
        payload["machine_digest"] = description.digest
    if params.get("max_cycles") is not None:
        payload["max_cycles"] = positive_real(
            "max_cycles", params["max_cycles"]
        )
        config = config.with_cycle_budget(payload["max_cycles"])
    return config, payload


# ----------------------------------------------------------------------
# Typed requests
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Request:
    """One validated, canonicalized compute request.

    ``payload`` is the small, picklable, JSON-able dict shipped to the
    worker (:func:`repro.service.jobs.execute_request`); ``key`` is its
    content digest.  Identical payloads always produce identical keys.
    :func:`canonicalize` hands the same instance to every caller with
    the same (kind, params), so treat ``payload`` as read-only.
    """

    kind: str
    key: str
    payload: dict
    deadline_s: float | None = None


@dataclass
class Response:
    """One decoded response envelope (client side)."""

    #: the request's ``id`` as sent: a string, or an integer
    id: str | int
    status: str
    kind: str = ""
    key: str = ""
    origin: str = ""
    elapsed_ms: float = 0.0
    body: dict = field(default_factory=dict)
    error: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def exit_code(self) -> int:
        if self.ok:
            return 0
        return int(self.error.get("exit_code", 6))

    def canonical_text(self) -> str:
        """The deterministic serialization of the body (byte-stable)."""
        return json.dumps(self.body, sort_keys=True)

    def render(self) -> str:
        """Human-facing rendering (identical for any origin)."""
        if self.ok:
            return render_body(self.kind, self.body)
        message = self.error.get("message", "request failed")
        return f"error [{self.error.get('code', '?')}]: {message}"

    @classmethod
    def from_dict(cls, data: dict) -> "Response":
        try:
            response_id = frame_id(data)
        except ProtocolError:
            response_id = str(data["id"])
        return cls(
            id="" if response_id is None else response_id,
            status=str(data.get("status", "error")),
            kind=str(data.get("kind", "")),
            key=str(data.get("key", "")),
            origin=str(data.get("origin", "")),
            elapsed_ms=float(data.get("elapsed_ms", 0.0)),
            body=dict(data.get("body") or {}),
            error=dict(data.get("error") or {}),
        )


def _require_kernel(params: dict) -> str:
    kernel = params.get("kernel")
    if not kernel or not isinstance(kernel, str):
        raise ProtocolError("request needs a 'kernel' (workload name)")
    from ..workloads import workload

    try:
        workload(kernel)
    except WorkloadError as exc:
        raise ProtocolError(str(exc)) from None
    return kernel.lower()


def _problem_size(params: dict) -> int | None:
    n = params.get("n")
    if n is None:
        return None
    if not isinstance(n, int) or isinstance(n, bool) or n <= 0:
        raise ProtocolError(
            f"problem size 'n' must be a positive integer, got {n!r}"
        )
    return n


def _inject_payload(params: dict) -> dict:
    """Pass-through for the deterministic chaos hook (``_inject``).

    The injection never participates in the content key — a request
    that kills its worker and is retried must land on the same digest
    as its healthy twin.
    """
    inject = params.get("_inject")
    if inject is None:
        return {}
    if not isinstance(inject, dict) or \
            inject.get("kind") not in WORKER_KINDS:
        raise ProtocolError(
            f"_inject needs {{'kind': {'|'.join(WORKER_KINDS)}, "
            "'attempts': N}"
        )
    return {"_inject": {
        "kind": inject["kind"],
        "attempts": int(inject.get("attempts", 1)),
    }}


#: Most canonicalized requests one process keeps (about 0.7 KB each).
REQUEST_MEMO_MAX = 1024

#: The exact leaf types ``json.loads`` produces.
_JSON_LEAVES = (str, int, float, bool, type(None))
#: ``json.dumps(..., sort_keys=True)`` without building an encoder per
#: call: memo keys, frames, body bytes and envelope heads all use it.
_ENCODER = json.JSONEncoder(sort_keys=True)


#: Canonical :class:`Request` objects, keyed by a (kind, params) digest.
_REQUEST_MEMO: Memo[bytes, Request] = Memo("request", REQUEST_MEMO_MAX)


def _is_plain_json(value) -> bool:
    """Whether ``value`` is made only of the exact types ``json.loads``
    returns.  A tuple, or a ``str``/``int`` subclass, encodes like its
    plain twin but does not validate like it, so it must not share the
    twin's memo entry."""
    kind = type(value)
    if kind is dict:
        for name, item in value.items():
            if type(name) is not str or not _is_plain_json(item):
                return False
        return True
    if kind is list:
        for item in value:
            if not _is_plain_json(item):
                return False
        return True
    return kind in _JSON_LEAVES


def _memo_key(kind: str, params) -> bytes | None:
    """The memo key of a request, or None to take the uncached path."""
    if type(kind) is not str:
        return None
    try:
        if not _is_plain_json(params):
            return None
        text = _ENCODER.encode([kind, params])
    except RecursionError:  # nested too deep, or circular
        return None
    return hashlib.blake2b(text.encode("ascii"), digest_size=16).digest()


def canonicalize(kind: str, params: dict | None) -> Request:
    """Validate and canonicalize one compute request.

    ``None`` params mean ``{}``.  Raises :class:`ProtocolError` (a
    ``usage`` error) on anything malformed, *before* the request
    consumes queue or worker capacity.  A (kind, params) seen before in
    this process returns the request derived the first time; errors
    are raised on every call.
    """
    if params is None:
        params = {}
    key = _memo_key(kind, params)
    if key is None:
        return _derive_request(kind, params)
    request = _REQUEST_MEMO.get(key)
    if request is None:
        request = _derive_request(kind, params)
        _REQUEST_MEMO.put(key, request)
    return request


def _derive_request(kind: str, params: dict) -> Request:
    """:func:`canonicalize` without the memo."""
    if kind not in REQUEST_KINDS:
        raise ProtocolError(
            f"unknown request kind {kind!r}; compute kinds: "
            f"{', '.join(REQUEST_KINDS)}; control kinds: "
            f"{', '.join(CONTROL_KINDS)}"
        )
    if not isinstance(params, dict):
        raise ProtocolError("'params' must be an object")
    deadline_s = params.get("deadline_s")
    if deadline_s is not None:
        deadline_s = positive_real("deadline_s", deadline_s)
    inject = _inject_payload(params)

    if kind in _KERNEL_KINDS:
        kernel = _require_kernel(params)
        config, machine = _machine_params(params)
        options = tuned_options(resolve_options(params), config)
        n = _problem_size(params) if kind in _SIZED_KINDS else None
        payload = {
            "kind": kind,
            "kernel": kernel,
            "options": options_to_dict(options),
            **machine,
        }
        if n is not None:
            payload["n"] = n
        if kind in _TASK_KINDS:
            key = SweepTask(workload=kernel, options=options,
                            config=config, n=n, mode=kind).key
        else:
            key = f"{kind}:{digest(payload)}"
    elif kind == "lint":
        kernel = _require_kernel(params)
        minimum = str(params.get("min_severity", "info")).lower()
        if minimum not in _SEVERITIES:
            raise ProtocolError(
                f"min_severity must be one of {_SEVERITIES}, "
                f"got {minimum!r}"
            )
        payload = {"kind": kind, "kernel": kernel,
                   "min_severity": minimum}
        key = f"lint:{digest(payload)}"
    elif kind == "report":
        from ..experiments import EXPERIMENTS

        names = params.get("experiments") or []
        if not isinstance(names, list) or \
                not all(isinstance(n, str) for n in names):
            raise ProtocolError(
                "'experiments' must be a list of experiment names"
            )
        for name in names:
            if name not in EXPERIMENTS:
                raise ProtocolError(
                    f"unknown experiment {name!r}; known: "
                    f"{', '.join(EXPERIMENTS)}"
                )
        payload = {"kind": kind, "experiments": sorted(names)}
        key = f"report:{digest(payload)}"
    else:  # kind == "sweep"
        from ..workloads import workload, workload_names

        kernels = params.get("kernels") or list(workload_names())
        if not isinstance(kernels, list) or \
                not all(isinstance(k, str) for k in kernels):
            raise ProtocolError(
                "'kernels' must be a list of workload names"
            )
        for name in kernels:
            try:
                workload(name)
            except WorkloadError as exc:
                raise ProtocolError(str(exc)) from None
        variants = params.get("variants") or ["default"]
        if not isinstance(variants, list):
            raise ProtocolError(
                "'variants' must be a list of variant names"
            )
        for name in variants:
            if name not in OPTION_VARIANTS:
                raise ProtocolError(
                    f"unknown option variant {name!r}; known: "
                    f"{', '.join(OPTION_VARIANTS)}"
                )
        payload = {
            "kind": kind,
            "kernels": [k.lower() for k in kernels],
            "variants": list(variants),
            **_machine_params(params)[1],
        }
        key = f"sweep:{digest(payload)}"
    return Request(kind=kind, key=key, payload={**payload, **inject},
                   deadline_s=deadline_s)


# ----------------------------------------------------------------------
# Framing helpers and rendering
# ----------------------------------------------------------------------


def encode_line(obj: dict) -> bytes:
    """One NDJSON frame (deterministic key order)."""
    return (_ENCODER.encode(obj) + "\n").encode("utf-8")


def encode_body(body: dict) -> bytes:
    """A body's canonical bytes, ``json.dumps(body, sort_keys=True)``."""
    return _ENCODER.encode(body).encode("utf-8")


def splice_line(head: dict, body: bytes) -> bytes:
    """The frame ``encode_line({**head, "body": body})`` would give, for
    a body already held as :func:`encode_body` bytes.

    ``"body"`` sorts before every envelope key, so the body opens the
    frame and the encoded ``head`` (never empty) follows it.
    """
    return b'{"body": %b, %b\n' % (
        body, _ENCODER.encode(head)[1:].encode("utf-8")
    )


def decode_line(raw: bytes | str) -> dict:
    """Decode one NDJSON frame; raises :class:`ProtocolError`."""
    if isinstance(raw, bytes):
        raw = raw.decode("utf-8", errors="replace")
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"malformed JSON frame: {exc}") from None
    if not isinstance(obj, dict):
        raise ProtocolError(
            f"frame must be a JSON object, got {type(obj).__name__}"
        )
    return obj


def frame_id(frame: dict) -> str | int | None:
    """A request frame's ``id``: a string or an integer (not a bool) as
    sent, or None when it is missing or ``null`` (the server then
    assigns one).  Any other value raises :class:`ProtocolError`."""
    value = frame.get("id")
    if value is None or isinstance(value, str) or (
            isinstance(value, int) and not isinstance(value, bool)):
        return value
    raise ProtocolError("'id' must be a string or an integer")


def error_response(request_id: str | int, kind: str, code: str,
                   message: str, *, status: str = "error",
                   retry_after_s: float | None = None,
                   key: str = "") -> dict:
    """A typed error/rejection envelope."""
    error = {
        "code": code,
        "exit_code": ERROR_EXIT_CODES.get(code, 6),
        "message": message,
    }
    if retry_after_s is not None:
        error["retry_after_s"] = round(retry_after_s, 4)
    return {"id": request_id, "status": status, "kind": kind,
            "key": key, "error": error}


def _render_advise(body: dict) -> str:
    """Text rendering of a static ``advise`` answer."""
    lines = [body.get("report", "").rstrip(), ""]
    tier = body.get("tier", "?")
    lines.append(
        f"  static t_p     {body.get('cpl', 0.0):8.2f} CPL "
        f"[{body.get('cpl_low', 0.0):.2f}, "
        f"{body.get('cpl_high', 0.0):.2f}]  ({tier} tier)"
    )
    advice = body.get("advice") or []
    if advice:
        lines.append("")
        lines.append("  ranked advice:")
        for rank, item in enumerate(advice, start=1):
            lines.append(
                f"    {rank}. [{item.get('target', '?')}] "
                f"{item.get('summary', '')} "
                f"(~{item.get('estimated_savings_cpl', 0.0):.2f} CPL, "
                f"{item.get('gap', '?')} gap)"
            )
    return "\n".join(lines)


def render_body(kind: str, body: dict) -> str:
    """Deterministic human rendering of a response body.

    Text-shaped results (analyze reports, sweep tables) print their
    text; data-shaped results print canonical JSON.  Both server-side
    and offline responses render through this one function, which is
    what makes the two byte-comparable.
    """
    if kind == "analyze":
        return body.get("report", "")
    if kind == "advise":
        return _render_advise(body)
    if kind == "sweep":
        return body.get("table", "")
    if kind == "report":
        from ..experiments.report import render_payload

        return render_payload(body)
    return json.dumps(body, indent=2, sort_keys=True)

"""Deterministic traffic-replay load harness.

The fleet's correctness contract is *byte-identity under replication*:
every response body a client gets from N replicas — computed,
coalesced, L1/L2 cached, or served across a failover — must equal,
byte for byte, what the single-process oracle
(:func:`repro.service.client.offline_response`) produces for the same
request.  This module is the machinery that proves it under load:

* :func:`make_zipf_frames` generates a reproducible burst with
  **Zipfian key skew** — a few hot keys dominate, a long tail of cold
  keys follows, exactly the duplicate-heavy mix that exercises
  single-flight, hot-key replication, and the tiered cache at once.
  Generation is a pure function of the seed (``random.Random(seed)``
  end to end), so a corpus regenerates bit-identically anywhere;
* :func:`record_burst` / :func:`load_burst` persist a corpus as
  NDJSON, one ``{"kind", "params"}`` frame per line — the recorded
  gates under ``tests/fleet/data/`` are written this way;
* :func:`replay_frames` replays a corpus through any client factory on
  ``jobs`` concurrent lanes (frame *i* rides lane ``i % jobs``, so
  lane assignment is deterministic too) and returns a
  :class:`ReplayReport` with every body in frame order;
* :func:`oracle_bodies` / :func:`verify_replay` are the byte-identity
  oracle: serverless canonical bodies for the same frames, and the
  comparison that must come back empty.
"""

from __future__ import annotations

import bisect
import json
import random
import threading
import time
from dataclasses import dataclass, field

from ..errors import ExperimentError
from ..resilience.store import atomic_write_text
from ..service.client import offline_response
from ..service.protocol import ProtocolError, canonicalize

#: Default Zipf exponent (s=1.1: hot head, heavy tail).
DEFAULT_SKEW = 1.1
#: Compute kinds the generator draws from by default.  ``advise`` is
#: the fast tier (inline, no worker), which keeps replay gates quick;
#: mixes may add worker-pool kinds like ``bound``.
DEFAULT_KINDS = ("advise",)
#: Option variants the generator crosses with the workloads.
DEFAULT_VARIANTS = ("default", "reuse", "tight-sregs",
                    "partial-sums")


#: Memo of content key -> "does the offline engine serve this ok?".
#: Not every kernel x variant pair is servable (a register-hungry
#: kernel under ``tight-sregs`` errors out, for example), and the
#: byte-identity gate needs every frame to have an ``ok`` oracle body.
_VIABLE: dict[str, bool] = {}


def _frame_params(frame: dict):
    """A frame's params: ``{}`` only when they are missing or null.

    Anything else goes to :func:`canonicalize` as it is, so a non-object
    is the ``usage`` error "'params' must be an object", never ``{}``.
    """
    params = frame.get("params")
    return {} if params is None else params


def _frame_viable(kind: str, params: dict) -> bool:
    key = canonicalize(kind, dict(params)).key
    if key not in _VIABLE:
        _VIABLE[key] = offline_response(kind, dict(params)).ok
    return _VIABLE[key]


def make_population(kinds=DEFAULT_KINDS, kernels=None,
                    variants=DEFAULT_VARIANTS,
                    machines=None) -> list[dict]:
    """The distinct request frames a burst draws from.

    The kinds x kernels x variants [x machines] cross product,
    restricted to the combinations the offline engine actually serves
    — unservable pairs (e.g. a variant that starves a kernel of
    registers) are filtered out, once, with the verdict memoised per
    content key.  ``machines`` is an optional list of built-in machine
    names; ``None`` keeps the machine axis out of the population
    (every frame targets the default C-240).
    """
    if kernels is None:
        from ..workloads import workload_names

        kernels = workload_names()
    machine_axis: list[str | None] = (
        [None] if machines is None else list(machines)
    )
    population = [
        {"kind": kind,
         "params": {"kernel": kernel, "variant": variant,
                    **({} if machine is None
                       else {"machine": machine})}}
        for kind in kinds
        for kernel in kernels
        for variant in variants
        for machine in machine_axis
    ]
    population = [
        frame for frame in population
        if _frame_viable(frame["kind"], frame["params"])
    ]
    if not population:
        raise ExperimentError("traffic population is empty")
    return population


def make_zipf_frames(count: int, seed: int, *,
                     kinds=DEFAULT_KINDS, kernels=None,
                     variants=DEFAULT_VARIANTS,
                     s: float = DEFAULT_SKEW) -> list[dict]:
    """A deterministic burst of ``count`` Zipf-skewed frames.

    The population is permuted by the seed (so *which* keys are hot
    varies across seeds) and rank ``r`` is drawn with probability
    proportional to ``1 / (r + 1)**s`` via inverse-CDF sampling.
    """
    if count < 1:
        raise ExperimentError(f"count must be >= 1, got {count}")
    rng = random.Random(seed)
    population = make_population(kinds, kernels, variants)
    rng.shuffle(population)
    cumulative: list[float] = []
    total = 0.0
    for rank in range(len(population)):
        total += 1.0 / float(rank + 1) ** s
        cumulative.append(total)
    frames = []
    for _ in range(count):
        rank = bisect.bisect_left(
            cumulative, rng.random() * total
        )
        frame = population[min(rank, len(population) - 1)]
        frames.append(
            {"kind": frame["kind"],
             "params": dict(frame["params"])}
        )
    return frames


# ----------------------------------------------------------------------
# Recorded corpora
# ----------------------------------------------------------------------


def record_burst(path: str, frames: list[dict]) -> None:
    """Persist a corpus as NDJSON (atomic, deterministic bytes)."""
    lines = []
    for frame in frames:
        try:
            canonicalize(frame["kind"], _frame_params(frame))
        except ProtocolError as exc:
            raise ExperimentError(
                f"unrecordable frame {frame}: {exc}"
            ) from None
        lines.append(json.dumps(frame, sort_keys=True))
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_burst(path: str) -> list[dict]:
    """Load a recorded NDJSON corpus (validating every frame)."""
    frames = []
    try:
        handle = open(path, encoding="utf-8")
    except OSError as exc:
        raise ExperimentError(
            f"cannot read burst {path}: {exc}"
        ) from None
    with handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                frame = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ExperimentError(
                    f"{path}:{number}: malformed frame: {exc}"
                ) from None
            if not isinstance(frame, dict) or "kind" not in frame:
                raise ExperimentError(
                    f"{path}:{number}: frame needs a 'kind'"
                )
            try:
                canonicalize(frame["kind"], _frame_params(frame))
            except ProtocolError as exc:
                raise ExperimentError(
                    f"{path}:{number}: invalid frame: {exc}"
                ) from None
            frames.append(frame)
    if not frames:
        raise ExperimentError(f"{path}: empty burst")
    return frames


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------


@dataclass
class ReplayReport:
    """Everything one replay produced, in frame order."""

    jobs: int
    elapsed_s: float
    #: canonical body text per frame (the byte-identity subject)
    bodies: list[str]
    #: response envelope status per frame ("ok", "error", ...)
    statuses: list[str]
    #: response origin per frame ("computed", "coalesced", ...)
    origins: list[str]
    errors: list[dict] = field(default_factory=list)

    @property
    def frames(self) -> int:
        return len(self.bodies)

    @property
    def throughput_rps(self) -> float:
        if self.elapsed_s <= 0:
            return 0.0
        return self.frames / self.elapsed_s

    def origin_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for origin in self.origins:
            counts[origin] = counts.get(origin, 0) + 1
        return counts


def replay_frames(frames: list[dict], client_factory,
           jobs: int = 1) -> ReplayReport:
    """Replay ``frames`` through ``jobs`` concurrent client lanes.

    ``client_factory()`` must return a connected client exposing
    ``request(kind, params)`` and ``close()`` — a
    :class:`~repro.service.client.ServiceClient` or a
    :class:`~repro.fleet.client.FleetClient` both do.  Each lane gets
    its own client (neither is thread-safe) and serves its slice in
    order; results are stitched back into frame order, so a report is
    comparable across any ``jobs``.
    """
    if jobs < 1:
        raise ExperimentError(f"jobs must be >= 1, got {jobs}")
    jobs = min(jobs, len(frames))
    bodies: list = [None] * len(frames)
    statuses: list = [None] * len(frames)
    origins: list = [None] * len(frames)
    failures: list[dict] = []
    lock = threading.Lock()

    def lane(lane_index: int) -> None:
        client = client_factory()
        try:
            for index in range(lane_index, len(frames), jobs):
                frame = frames[index]
                try:
                    response = client.request(
                        frame["kind"], _frame_params(frame)
                    )
                except ExperimentError as exc:
                    with lock:
                        failures.append(
                            {"frame": index, "error": str(exc)}
                        )
                    bodies[index] = ""
                    statuses[index] = "transport-error"
                    origins[index] = ""
                    continue
                bodies[index] = response.canonical_text()
                statuses[index] = response.status
                origins[index] = response.origin
        finally:
            client.close()

    t0 = time.perf_counter()
    if jobs == 1:
        lane(0)
    else:
        threads = [
            threading.Thread(target=lane, args=(i,),
                             name=f"replay-lane-{i}")
            for i in range(jobs)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    elapsed = time.perf_counter() - t0
    return ReplayReport(
        jobs=jobs, elapsed_s=elapsed, bodies=bodies,
        statuses=statuses, origins=origins, errors=failures,
    )


# ----------------------------------------------------------------------
# The byte-identity oracle
# ----------------------------------------------------------------------


def oracle_bodies(frames: list[dict]) -> list[str]:
    """Serverless canonical bodies for ``frames`` (the ground truth).

    Computed through :func:`offline_response` — the identical worker
    entry point the replicas use — once per distinct content key,
    then fanned back out to frame order.
    """
    by_key: dict[str, str] = {}
    bodies = []
    for frame in frames:
        params = _frame_params(frame)
        key = canonicalize(frame["kind"], params).key
        if key not in by_key:
            response = offline_response(frame["kind"], params)
            if not response.ok:
                raise ExperimentError(
                    f"oracle frame failed ({frame}): "
                    f"{response.error.get('message')}"
                )
            by_key[key] = response.canonical_text()
        bodies.append(by_key[key])
    return bodies


def verify_replay(frames: list[dict], report: ReplayReport,
                  oracle: list[str] | None = None) -> list[dict]:
    """Byte-compare a replay against the oracle; [] means identical."""
    if oracle is None:
        oracle = oracle_bodies(frames)
    if len(oracle) != report.frames:
        raise ExperimentError(
            f"oracle has {len(oracle)} bodies for "
            f"{report.frames} frames"
        )
    mismatches = []
    for index, (want, got, status) in enumerate(
            zip(oracle, report.bodies, report.statuses)):
        if status != "ok" or want != got:
            mismatches.append({
                "frame": index,
                "request": frames[index],
                "status": status,
                "expected": want,
                "got": got,
            })
    return mismatches

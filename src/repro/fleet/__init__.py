"""``repro.fleet`` — the sharded multi-replica service fabric.

Scales the PR-5 :class:`~repro.service.server.AnalysisServer` from a
process to a fleet: consistent-hash routing of the service's
content-digest keys across N replicas, a shard-map-owning client with
failover, and a tiered cache (per-replica memory L1 → one shared
durable L2 directory).  Owner routing is the only coordination: a
key's ring owner computes it once and every other replica reads it
from the L2.  The correctness contract is unchanged from one process:
every body is byte-identical to the serverless oracle, for any
replica count, origin, or mid-burst failure.

Public surface:

* :mod:`~repro.fleet.ring` — :class:`HashRing`, the consistent-hash
  shard map (virtual nodes, minimal remap on membership change);
* :mod:`~repro.fleet.store` — :class:`SharedL2Store`, the fleet's
  shared result tier;
* :mod:`~repro.fleet.client` — :class:`FleetClient`, owner routing +
  failover over plain service connections;
* :mod:`~repro.fleet.fabric` — :class:`Fleet`, the lifecycle of N
  ``serve`` replica processes, with deterministic partition (SIGKILL)
  injection;
* :mod:`~repro.fleet.replay` — the deterministic traffic-replay
  harness (Zipfian corpora, NDJSON recording, multi-lane replay, the
  byte-identity oracle).

Submodules load lazily, mirroring :mod:`repro.service`.
"""

from __future__ import annotations

_EXPORTS = {
    "HashRing": "ring",
    "ring_position": "ring",
    "DEFAULT_VNODES": "ring",
    "SharedL2Store": "store",
    "FleetClient": "client",
    "Fleet": "fabric",
    "FleetReplica": "fabric",
    "ReplayReport": "replay",
    "make_population": "replay",
    "make_zipf_frames": "replay",
    "record_burst": "replay",
    "load_burst": "replay",
    "replay_frames": "replay",
    "oracle_bodies": "replay",
    "verify_replay": "replay",
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

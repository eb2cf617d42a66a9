"""Fleet benchmarks: warm tiered-cache serving and horizontal scaling.

Two gates:

* **warm burst** — a Zipf-skewed advise burst replayed against a
  primed 3-replica process fleet must be served entirely from the
  tiered cache (L1 or shared L2 — never recomputed) and stay
  byte-identical to the offline oracle;
* **scaling** — a cold burst of distinct ``bound`` computations
  (~100 ms of real model evaluation each, dwarfing the ~0.4 ms
  transport round-trip) must run >= 2x faster on 3 replicas than on
  1.  The burst is hand-balanced: exactly four keys hash to each
  replica's arc, so 3 replicas offer an ideal 3x of compute.  The
  ratio needs real parallelism, so the test skips below 3 cores.
"""

import os

import pytest

from repro.fleet import (
    make_zipf_frames,
    replay_frames,
    verify_replay,
)
from repro.fleet.fabric import Fleet
from repro.service.client import ServiceClient

WARM_FRAMES = make_zipf_frames(200, seed=1993)

#: Distinct bound requests, four per replica arc of the default
#: 3-node ring (replica-0/1/2, 64 vnodes), interleaved by owner so
#: every replay lane visits all three replicas.  If the ring's hash
#: placement ever changes, the balance assert below fails loudly.
SCALING_BURST = [
    {"kind": "bound", "params": {"kernel": kernel,
                                 "variant": variant}}
    for kernel, variant in (
        ("lfk1", "default"),        # replica-0
        ("lfk1", "partial-sums"),   # replica-1
        ("lfk1", "tight-sregs"),    # replica-2
        ("lfk1", "reuse"),          # replica-0
        ("lfk2", "reuse"),          # replica-1
        ("lfk2", "default"),        # replica-2
        ("lfk3", "default"),        # replica-0
        ("lfk3", "reuse"),          # replica-1
        ("lfk3", "partial-sums"),   # replica-2
        ("lfk4", "default"),        # replica-0
        ("lfk6", "reuse"),          # replica-1
        ("lfk4", "reuse"),          # replica-2
    )
]


def _start_cold_fleet(root, replicas):
    """A process fleet with private caches and warmed worker pools.

    ``shared_l2=False`` keeps each replica's cache independent, so
    every SCALING_BURST key is a genuine local computation.  The
    warm-up request spawns each replica's worker process up front —
    the timed pass must measure model evaluation, not interpreter
    start-up.
    """
    fleet = Fleet(
        str(root), replicas, workers=1,
        shared_l2=False,
    ).start()
    for endpoint in fleet.topology().values():
        with ServiceClient(endpoint, timeout=60.0) as conn:
            assert conn.request("bound", {"kernel": "daxpy"}).ok
    return fleet


def test_bench_fleet_warm_burst(benchmark, tmp_path):
    fleet = Fleet(
        str(tmp_path), 3, workers=1
    ).start()
    try:
        prime = replay_frames(WARM_FRAMES, fleet.client, jobs=1)
        assert prime.errors == []
        report = benchmark.pedantic(
            lambda: replay_frames(WARM_FRAMES, fleet.client,
                                  jobs=3),
            rounds=1, iterations=1,
        )
    finally:
        fleet.stop()
    # Warm requests never recompute: every body comes from the
    # tiered cache (the owner's L1, which the priming pass filled).
    assert report.origin_counts() == {"cache": len(WARM_FRAMES)}
    assert verify_replay(WARM_FRAMES, report) == []


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 3,
    reason="horizontal scaling needs >= 3 cores",
)
def test_bench_fleet_scaling_over_replicas(benchmark, tmp_path):
    single = _start_cold_fleet(tmp_path / "one", 1)
    try:
        baseline = replay_frames(
            SCALING_BURST, single.client, jobs=6
        )
    finally:
        single.stop()
    assert baseline.errors == []

    fleet = _start_cold_fleet(tmp_path / "three", 3)
    try:
        report = benchmark.pedantic(
            lambda: replay_frames(SCALING_BURST, fleet.client,
                                  jobs=6),
            rounds=1, iterations=1,
        )
        shards = fleet.fleet_metrics()
    finally:
        fleet.stop()

    assert report.errors == []
    assert verify_replay(SCALING_BURST, report) == []
    assert report.bodies == baseline.bodies
    # The hand-balanced burst really did land 4 keys per replica
    # (the daxpy warm-up adds one compute to each).
    computed = sorted(
        shards[name]["computed"] for name in shards
    )
    assert computed == [5, 5, 5]
    # The headline: 3 replicas clear twice the single-replica rate.
    assert report.throughput_rps >= 2.0 * baseline.throughput_rps

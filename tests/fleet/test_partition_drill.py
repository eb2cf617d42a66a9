"""Chaos partition drill: kill a replica mid-burst, lose nothing.

The ``fleet.replica`` fault site is checked by the FleetClient before
every send, with the target replica's name as the path — so a plan
like ``{"site": "fleet.replica", "path": "replica-1", "after": N}``
deterministically partitions that replica on the (N+1)-th request
routed to it, mid-burst.  The drill's acceptance criteria: failover
serves **every** request, and every body stays byte-identical to the
single-replica offline oracle.
"""

import pytest

from repro.fleet import (
    make_zipf_frames,
    oracle_bodies,
    replay_frames,
    verify_replay,
)
from repro.fleet.fabric import Fleet
from repro.resilience import faults
from repro.resilience.retry import RetryPolicy
from repro.service.protocol import canonicalize

FRAMES = 60
SEED = 240


def drill_plan(victim, after):
    return faults.FaultPlan([
        faults.FaultSpec(site="fleet.replica", kind="io-error",
                         path=victim, after=after, count=1),
    ])


@pytest.fixture(scope="module")
def frames():
    return make_zipf_frames(FRAMES, seed=SEED)


@pytest.fixture(scope="module")
def oracle(frames):
    return oracle_bodies(frames)


def test_drill_plan_validates():
    plan = drill_plan("replica-1", 5)
    assert plan.faults[0].site == "fleet.replica"


def test_mid_burst_kill_stays_byte_identical(tmp_path, frames,
                                             oracle):
    fleet = Fleet(str(tmp_path), 3).start()
    try:
        def client():
            return fleet.client(
                retry=RetryPolicy.immediate(retries=2)
            )

        with faults.chaos(drill_plan("replica-1", after=10)):
            report = replay_frames(frames, client, jobs=1)

        # The kill really happened.
        assert not fleet.replicas["replica-1"].alive
        assert sorted(fleet.topology()) == [
            "replica-0", "replica-2"
        ]
        # ...and nobody noticed: every request served, every body
        # identical to the single-process oracle.
        assert report.errors == []
        assert report.statuses == ["ok"] * FRAMES
        assert verify_replay(frames, report, oracle) == []
    finally:
        fleet.stop()


def test_kill_during_concurrent_lanes(tmp_path, frames, oracle):
    """The drill holds under multi-lane replay too."""
    fleet = Fleet(str(tmp_path), 3).start()
    try:
        def client():
            return fleet.client(
                retry=RetryPolicy.immediate(retries=2)
            )

        with faults.chaos(drill_plan("replica-0", after=4)):
            report = replay_frames(frames, client, jobs=3)
        assert not fleet.replicas["replica-0"].alive
        assert report.errors == []
        assert verify_replay(frames, report, oracle) == []
    finally:
        fleet.stop()


def test_survivors_absorb_the_victims_shard(tmp_path, frames,
                                            oracle):
    """After the kill, the victim's keys are served by survivors
    (warm from the shared L2 where the victim published them)."""
    fleet = Fleet(str(tmp_path), 3).start()
    try:
        warm = replay_frames(
            frames, lambda: fleet.client(
                retry=RetryPolicy.immediate(retries=2)
            ), jobs=1,
        )
        assert verify_replay(frames, warm, oracle) == []
        fleet.partition("replica-2")
        report = replay_frames(
            frames, lambda: fleet.client(
                retry=RetryPolicy.immediate(retries=2)
            ), jobs=1,
        )
        assert report.errors == []
        assert verify_replay(frames, report, oracle) == []
        # Nothing was recomputed: the survivors served the victim's
        # keys from the shared L2 (or their own L1).
        computed = sum(
            fleet.metrics(name)["computed"]
            + fleet.metrics(name)["static_answers"]
            for name in ("replica-0", "replica-1")
        )
        distinct = len({
            canonicalize(f["kind"], dict(f["params"])).key
            for f in frames
        })
        assert computed <= distinct
    finally:
        fleet.stop()

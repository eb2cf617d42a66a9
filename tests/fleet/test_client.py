"""FleetClient unit + integration tests: routing and failover."""

import pytest

from repro.errors import ExperimentError
from repro.fleet import FleetClient
from repro.fleet.fabric import Fleet
from repro.resilience.retry import RetryPolicy
from repro.service.client import ServiceClient, offline_response
from repro.service.protocol import ProtocolError, canonicalize
from repro.workloads import workload_names

from ..service.test_protocol import NON_OBJECTS

FAKE_TOPOLOGY = {
    "replica-0": "unix:/nonexistent-0.sock",
    "replica-1": "unix:/nonexistent-1.sock",
    "replica-2": "unix:/nonexistent-2.sock",
}


class TestRouting:
    def test_route_prefers_the_ring_owner(self):
        client = FleetClient(FAKE_TOPOLOGY)
        key = canonicalize("advise", {"kernel": "lfk1"}).key
        order = client.route(key)
        assert order[0] == client.ring.owner(key)
        assert sorted(order) == sorted(FAKE_TOPOLOGY)

    def test_down_replicas_sink_to_the_tail(self):
        client = FleetClient(FAKE_TOPOLOGY)
        key = canonicalize("advise", {"kernel": "lfk1"}).key
        owner = client.ring.owner(key)
        client.mark_down(owner)
        order = client.route(key)
        assert order[-1] == owner
        assert order[0] != owner
        client.mark_up(owner)
        assert client.route(key)[0] == owner

    def test_every_request_routes_to_the_ring_owner(self):
        client = FleetClient(FAKE_TOPOLOGY)
        key = canonicalize("advise", {"kernel": "lfk1"}).key
        owner = client.ring.owner(key)
        heads = [client.route(key)[0] for _ in range(20)]
        assert heads == [owner] * 20

    def test_membership_changes_resize_the_ring(self):
        client = FleetClient(dict(FAKE_TOPOLOGY))
        client.add_replica("replica-3", "unix:/nonexistent-3.sock")
        assert len(client.ring) == 4
        client.remove_replica("replica-0")
        assert len(client.ring) == 3
        assert "replica-0" not in client.topology

    def test_empty_topology_is_rejected(self):
        with pytest.raises(ExperimentError):
            FleetClient({})


class TestNonObjectParams:
    @pytest.mark.parametrize("params", [*NON_OBJECTS, [["kernel", "lfk1"]]])
    def test_request_raises_before_any_connection(self, params,
                                                  monkeypatch):
        client = FleetClient(FAKE_TOPOLOGY)

        def connect(name):
            raise AssertionError(f"connected to {name}")

        monkeypatch.setattr(client, "_connection", connect)
        with pytest.raises(ProtocolError, match="must be an object"):
            client.request("report", params)
        assert client.stats()["requests"] == 0


class TestDeadFleet:
    def test_every_replica_down_raises_after_retries(self):
        client = FleetClient(
            FAKE_TOPOLOGY, retry=RetryPolicy.immediate(retries=1)
        )
        with pytest.raises(ExperimentError,
                           match="failed on every replica"):
            client.request("advise", {"kernel": "lfk1"})
        assert client.stats()["failovers"] >= 3
        assert sorted(client.stats()["down"]) == sorted(FAKE_TOPOLOGY)


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    root = tmp_path_factory.mktemp("fleet-client")
    fleet = Fleet(str(root), 3).start()
    yield fleet
    fleet.stop()


class TestLiveFleet:
    def test_bodies_match_the_offline_oracle(self, fleet):
        with fleet.client() as client:
            for kernel in ("lfk1", "lfk3", "daxpy"):
                response = client.request(
                    "advise", {"kernel": kernel}
                )
                assert response.ok
                oracle = offline_response(
                    "advise", {"kernel": kernel}
                )
                assert response.canonical_text() == \
                    oracle.canonical_text()

    def test_duplicates_hit_the_owner_cache(self, fleet):
        with fleet.client() as client:
            first = client.request("advise", {"kernel": "lfk7"})
            second = client.request("advise", {"kernel": "lfk7"})
        assert first.ok and second.ok
        assert second.origin == "cache"
        assert first.canonical_text() == second.canonical_text()

    def test_request_many_preserves_frame_order(self, fleet):
        frames = [("advise", {"kernel": "lfk1"}),
                  ("advise", {"kernel": "lfk2"}),
                  ("advise", {"kernel": "lfk1"})]
        with fleet.client() as client:
            responses = client.request_many(frames)
        assert [r.kind for r in responses] == ["advise"] * 3
        assert responses[0].canonical_text() == \
            responses[2].canonical_text()
        assert responses[0].canonical_text() != \
            responses[1].canonical_text()

    def test_worker_kinds_flow_through_the_fleet(self, fleet):
        with fleet.client() as client:
            response = client.request("bound", {"kernel": "lfk6"})
        assert response.ok
        oracle = offline_response("bound", {"kernel": "lfk6"})
        assert response.canonical_text() == oracle.canonical_text()


class TestFailover:
    def test_killed_owner_fails_over_byte_identically(self, tmp_path):
        fleet = Fleet(str(tmp_path), 3).start()
        try:
            with fleet.client(
                retry=RetryPolicy.immediate(retries=2)
            ) as client:
                key = canonicalize("advise", {"kernel": "lfk12"}).key
                victim = client.ring.owner(key)
                warm = client.request("advise", {"kernel": "lfk12"})
                assert warm.ok
                fleet.partition(victim)
                after = client.request("advise", {"kernel": "lfk12"})
                assert after.ok
                assert after.canonical_text() == warm.canonical_text()
                assert client.stats()["failovers"] >= 1
                assert victim in client.stats()["down"]
        finally:
            fleet.stop()

    def test_failover_promotes_the_shared_l2(self, tmp_path):
        """The successor serves a killed owner's keys from L2."""
        fleet = Fleet(str(tmp_path), 3).start()
        try:
            with fleet.client(
                retry=RetryPolicy.immediate(retries=2)
            ) as client:
                key = canonicalize("advise", {"kernel": "wave1d"}).key
                victim = client.ring.owner(key)
                client.request("advise", {"kernel": "wave1d"})
                fleet.partition(victim)
                response = client.request(
                    "advise", {"kernel": "wave1d"}
                )
                assert response.ok
                successors = [
                    name for name in client.ring.owners(key, 3)
                    if name != victim
                ]
                l2_hits = 0
                for name in successors:
                    shards = fleet.metrics(name).get("shards", {})
                    l2_hits += shards.get(name, {}).get("l2_hits", 0)
                assert l2_hits >= 1
        finally:
            fleet.stop()

    def test_draining_replica_keys_come_from_a_successor(self, tmp_path):
        """A draining replica refuses its uncached keys as
        ``unavailable``; the client serves them from a successor."""
        fleet = Fleet(str(tmp_path), 3).start()
        try:
            with fleet.client(
                retry=RetryPolicy.immediate(retries=2)
            ) as client:
                owner = {
                    kernel: client.ring.owner(
                        canonicalize("advise", {"kernel": kernel}).key
                    )
                    for kernel in workload_names()
                }
                victim = owner["lfk1"]
                owned = [k for k, name in owner.items() if name == victim]
                assert len(owned) >= 2
                # Open the client's connection to the victim, then
                # drain it: the listener closes, the connection stays.
                assert client.request(
                    "advise", {"kernel": owned[0]}
                ).ok
                endpoint = fleet.replicas[victim].endpoint
                with ServiceClient(endpoint, timeout=10.0) as admin:
                    assert admin.drain().ok
                for kernel in owned[1:]:
                    response = client.request(
                        "advise", {"kernel": kernel}
                    )
                    assert response.status == "ok", response.error
                    oracle = offline_response(
                        "advise", {"kernel": kernel}
                    )
                    assert response.canonical_text() == \
                        oracle.canonical_text()
                assert client.stats()["down"] == []
        finally:
            fleet.stop()

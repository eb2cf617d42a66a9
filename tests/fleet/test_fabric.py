"""Fleet lifecycle tests: thread and process modes, partition."""

import os

import pytest

from repro.errors import ExperimentError
from repro.fleet.fabric import Fleet
from repro.service.client import ServiceClient, offline_response


class TestThreadMode:
    def test_start_topology_stop(self, tmp_path):
        fleet = Fleet(str(tmp_path), 3, mode="thread").start()
        try:
            topology = fleet.topology()
            assert sorted(topology) == [
                "replica-0", "replica-1", "replica-2"
            ]
            assert len(set(topology.values())) == 3
            for name, endpoint in topology.items():
                assert endpoint.startswith("unix:")
                with ServiceClient(endpoint, timeout=10.0) as conn:
                    assert conn.ping()
                health = fleet.healthz(name)
                assert health["status"] == "ok"
        finally:
            fleet.stop()

    def test_replicas_share_one_l2(self, tmp_path):
        fleet = Fleet(str(tmp_path), 2, mode="thread").start()
        try:
            assert fleet.l2_root is not None
            topology = fleet.topology()
            with ServiceClient(topology["replica-0"],
                               timeout=10.0) as conn:
                first = conn.request("advise", {"kernel": "lfk4"})
            assert first.ok
            # The *other* replica serves the same key warm from the
            # shared L2 — it never computed it.
            with ServiceClient(topology["replica-1"],
                               timeout=10.0) as conn:
                second = conn.request("advise", {"kernel": "lfk4"})
            assert second.ok
            assert second.origin == "cache"
            assert second.canonical_text() == first.canonical_text()
            shards = fleet.metrics("replica-1")["shards"]
            assert shards["replica-1"]["l2_hits"] == 1
        finally:
            fleet.stop()

    def test_partition_is_abrupt_and_idempotent(self, tmp_path):
        fleet = Fleet(str(tmp_path), 2, mode="thread").start()
        try:
            endpoint = fleet.topology()["replica-0"]
            conn = ServiceClient(endpoint, timeout=5.0).connect()
            assert conn.ping()
            fleet.partition("replica-0")
            fleet.partition("replica-0")  # idempotent
            assert not fleet.replicas["replica-0"].alive
            assert "replica-0" not in fleet.topology()
            # The live connection was severed, not drained.
            with pytest.raises(ExperimentError):
                conn.ping()
            conn.close()
            with pytest.raises(ExperimentError):
                ServiceClient(endpoint, timeout=2.0).connect()
        finally:
            fleet.stop()

    def test_partition_unknown_replica_is_an_error(self, tmp_path):
        fleet = Fleet(str(tmp_path), 1, mode="thread").start()
        try:
            with pytest.raises(ExperimentError):
                fleet.partition("replica-99")
        finally:
            fleet.stop()

    def test_validates_arguments(self, tmp_path):
        with pytest.raises(ExperimentError):
            Fleet(str(tmp_path), 0)
        with pytest.raises(ExperimentError):
            Fleet(str(tmp_path), 1, mode="container")

    def test_no_shared_l2_is_allowed(self, tmp_path):
        fleet = Fleet(
            str(tmp_path), 1, mode="thread", shared_l2=False
        ).start()
        try:
            assert fleet.l2_root is None
            with fleet.client() as client:
                assert client.request(
                    "advise", {"kernel": "lfk1"}
                ).ok
        finally:
            fleet.stop()


class TestProcessMode:
    def test_subprocess_replica_serves_byte_identically(
            self, tmp_path):
        fleet = Fleet(str(tmp_path), 1, mode="process").start()
        try:
            replica = fleet.replicas["replica-0"]
            assert replica.process is not None
            assert replica.alive
            with fleet.client() as client:
                response = client.request(
                    "advise", {"kernel": "heat1d"}
                )
            assert response.ok
            oracle = offline_response("advise", {"kernel": "heat1d"})
            assert response.canonical_text() == \
                oracle.canonical_text()
        finally:
            fleet.stop()
        assert replica.process.poll() is not None
        assert not os.path.exists(
            os.path.join(str(tmp_path), "replica-0.sock")
        )

    def test_subprocess_replica_gets_the_fleet_settings(self, tmp_path):
        fleet = Fleet(
            str(tmp_path), 1, mode="process", cache_max=7,
            job_timeout_s=30.0,
        ).start()
        try:
            cache = fleet.metrics("replica-0")["cache"]
            assert cache["max_entries"] == 7
        finally:
            fleet.stop()

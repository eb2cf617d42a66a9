"""Chaos tests for the analysis service.

The service must hide infrastructure failure from clients: a killed
worker is retried under the pool's RetryPolicy, and a dropped
connection only affects that connection.
"""

import pytest

from repro.errors import ExperimentError
from repro.resilience import faults
from repro.service import ServiceConfig, start_in_thread
from repro.service.client import ServiceClient


@pytest.fixture()
def server(tmp_path):
    thread = start_in_thread(
        ServiceConfig(
            socket_path=str(tmp_path / "chaos.sock"),
            workers=1,
            retries=2,
        )
    )
    yield thread
    thread.stop()


class TestWorkerCrashes:
    def test_killed_worker_is_retried_invisibly(self, server):
        """A worker killed mid-request must never surface to the
        client: the pool rebuilds, the job retries, the response is
        the same bytes a healthy run produces."""
        with ServiceClient(server.endpoints[0], timeout=60.0) as client:
            healthy = client.request("bound", {"kernel": "lfk6"})
            poisoned = client.request(
                "run",
                {"kernel": "lfk6",
                 "_inject": {"kind": "exit", "attempts": 1}},
            )
            assert poisoned.ok
            assert poisoned.origin == "computed"
            metrics = client.metrics()
            assert metrics["worker_restarts"] >= 1
            # Same content key as the healthy twin -> later identical
            # requests are cache hits even though the first attempt
            # died.
            again = client.request("run", {"kernel": "lfk6"})
            assert again.ok and again.origin == "cache"
            assert again.canonical_text() == poisoned.canonical_text()
            assert healthy.ok

    def test_exhausted_retries_surface_as_infrastructure(self, server):
        with ServiceClient(server.endpoints[0], timeout=60.0) as client:
            response = client.request(
                "bound",
                {"kernel": "lfk8",
                 "_inject": {"kind": "exit", "attempts": 10}},
            )
            assert response.status == "error"
            assert response.error["code"] == "infrastructure"
            assert response.exit_code == 5
            # The server survives and keeps answering.
            assert client.ping()
            healthy = client.request("bound", {"kernel": "lfk8"})
            assert healthy.ok

    def test_bystander_of_a_crash_is_answered(self, tmp_path):
        """A request whose worker died beside a poisoned one re-runs
        alone, uncharged: only the poisoned request fails."""
        thread = start_in_thread(
            ServiceConfig(socket_path=str(tmp_path / "two.sock"),
                          workers=2, retries=2)
        )
        try:
            with ServiceClient(thread.endpoints[0],
                               timeout=60.0) as client:
                bystander, poisoned = client.request_many([
                    ("analyze", {"kernel": "lfk8"}),
                    ("run", {"kernel": "lfk1",
                             "_inject": {"kind": "exit",
                                         "attempts": 99}}),
                ])
        finally:
            thread.stop()
        assert bystander.ok, bystander.error
        assert poisoned.status == "error"
        assert poisoned.error["code"] == "infrastructure"

    def test_deterministic_raise_is_not_retried(self, server):
        """A job that raises (rather than dying) fails the same way
        every time; the pool must not burn retries on it."""
        with ServiceClient(server.endpoints[0], timeout=60.0) as client:
            before = server.server.pool.jobs_submitted
            response = client.request(
                "bound",
                {"kernel": "lfk1", "n": 64,
                 "_inject": {"kind": "raise", "attempts": 10}},
            )
            assert response.status == "error"
            assert server.server.pool.jobs_submitted == before + 1


class TestConnectionFaults:
    def test_accept_fault_drops_one_connection_only(self, server):
        plan = faults.FaultPlan.from_dict(
            {"faults": [
                {"site": "service.accept", "kind": "io-error",
                 "count": 1},
            ]}
        )
        with faults.chaos(plan):
            doomed = ServiceClient(server.endpoints[0], timeout=5.0)
            with pytest.raises(ExperimentError):
                doomed.connect()
                doomed.request("ping")
            doomed.close()
            # The very next connection is served normally.
            with ServiceClient(server.endpoints[0]) as client:
                assert client.ping()
            # fired() reports on the armed plan, so look before the
            # chaos block ends.
            assert any(
                f["site"] == "service.accept" for f in faults.fired()
            )


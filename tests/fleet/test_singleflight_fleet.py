"""Fleet-wide single-flight: N duplicates, one computation.

* **owner routing** — every duplicate of a key routes to the same
  replica, whose per-process single-flight collapses them: 3 clients
  x 100 duplicate requests across 3 replicas must produce exactly one
  worker computation, fleet-wide;
* **requests that bypass the owner** — two clients pinned to two
  different replicas ask for the same cold key at once.  Each replica
  may compute it, so the fleet pays at most one extra job, and both
  bodies and the one the shared L2 keeps are the offline oracle's.
"""

import threading

from repro.fleet.fabric import Fleet
from repro.fleet.store import SharedL2Store
from repro.service.client import ServiceClient, offline_response
from repro.service.protocol import canonicalize

CLIENTS = 3
DUPLICATES = 100


def shard_counter(metrics_body, shard, name):
    return metrics_body.get("shards", {}).get(shard, {}).get(name, 0)


class TestOwnerRouting:
    def test_300_duplicates_one_worker_computation(self, tmp_path):
        """3 clients x 100 duplicates x 3 replicas -> 1 job."""
        fleet = Fleet(str(tmp_path), 3).start()
        try:
            results = [None] * CLIENTS
            barrier = threading.Barrier(CLIENTS)

            def storm(index):
                client = fleet.client()
                try:
                    barrier.wait(timeout=30.0)
                    results[index] = client.request_many(
                        [("bound", {"kernel": "lfk8"})] * DUPLICATES
                    )
                finally:
                    client.close()

            threads = [
                threading.Thread(target=storm, args=(i,))
                for i in range(CLIENTS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)

            oracle = offline_response(
                "bound", {"kernel": "lfk8"}
            ).canonical_text()
            for responses in results:
                assert responses is not None
                assert len(responses) == DUPLICATES
                for response in responses:
                    assert response.ok
                    assert response.canonical_text() == oracle

            # The crux: one computation in the whole fleet, and no
            # worker restart that would have re-run it.
            computed = 0
            restarts = 0
            for name in fleet.replicas:
                body = fleet.metrics(name)
                computed += body["computed"]
                computed += shard_counter(
                    body, name, "static_answers"
                )
                restarts += body["worker_restarts"]
            assert computed == 1
            assert restarts == 0
            # Everything else was a cache hit or coalesced join on
            # the one owner replica.
            served = sum(
                fleet.metrics(name)["cache_hits"]
                + fleet.metrics(name)["coalesced"]
                for name in fleet.replicas
            )
            assert served == CLIENTS * DUPLICATES - 1
        finally:
            fleet.stop()


class TestCrossReplicaDuplicates:
    def test_pinned_clients_get_one_body(self, tmp_path):
        """Two replicas, one cold key, at once: the oracle's bytes from
        one or two computations, and the same body in the L2."""
        fleet = Fleet(str(tmp_path), 2).start()
        try:
            topology = fleet.topology()
            bodies = {}
            barrier = threading.Barrier(2)

            def pinned(name):
                # Straight to one replica: no ring routing involved.
                with ServiceClient(topology[name],
                                   timeout=60.0) as conn:
                    barrier.wait(timeout=30.0)
                    response = conn.request(
                        "bound", {"kernel": "tridiag_rhs"}
                    )
                    assert response.ok, response.error
                    bodies[name] = response.canonical_text()

            threads = [
                threading.Thread(target=pinned, args=(name,))
                for name in topology
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)

            oracle = offline_response("bound", {"kernel": "tridiag_rhs"})
            assert bodies == {
                name: oracle.canonical_text() for name in topology
            }
            key = canonicalize("bound", {"kernel": "tridiag_rhs"}).key
            assert SharedL2Store(fleet.l2_root).get(key) == oracle.body
            computed = sum(
                fleet.metrics(name)["computed"] for name in topology
            )
            assert computed in (1, 2)
        finally:
            fleet.stop()

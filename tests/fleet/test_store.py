"""Shared L2 store unit tests: bodies, leases, degradation."""

import json
import os
import time

import pytest

from repro.errors import ExperimentError
from repro.fleet.store import SharedL2Store
from repro.resilience import faults


class TestBodies:
    def test_roundtrip_and_counters(self, tmp_path):
        store = SharedL2Store(str(tmp_path))
        assert store.get("k1") is None
        store.put("k1", "advise", {"cpl": 1.5})
        assert store.get("k1") == {"cpl": 1.5}
        stats = store.stats()
        assert stats["entries"] == 1
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["writes"] == 1
        assert stats["degraded"] is None

    def test_shared_between_instances(self, tmp_path):
        """Two replicas on one directory see each other's writes."""
        writer = SharedL2Store(str(tmp_path))
        reader = SharedL2Store(str(tmp_path))
        writer.put("k", "bound", {"v": 2})
        assert reader.get("k") == {"v": 2}

    def test_foreign_or_torn_document_reads_as_miss(self, tmp_path):
        store = SharedL2Store(str(tmp_path))
        store.put("k", "advise", {"v": 1})
        path = store._body_path("k")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"key": "other-key", "body"')
        assert store.get("k") is None
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"key": "wrong", "body": {"v": 9}}, fh)
        assert store.get("k") is None

    def test_requires_a_directory(self):
        with pytest.raises(ExperimentError):
            SharedL2Store("")

    def test_write_fault_degrades_to_read_only(self, tmp_path):
        store = SharedL2Store(str(tmp_path))
        store.put("before", "advise", {"v": 1})
        plan = faults.FaultPlan([
            faults.FaultSpec(site="fleet.l2_write", kind="io-error"),
        ])
        with faults.chaos(plan):
            store.put("during", "advise", {"v": 2})
        assert store.degraded is not None
        # Read-only from here on: reads still serve, writes drop.
        assert store.get("before") == {"v": 1}
        store.put("after", "advise", {"v": 3})
        assert store.get("after") is None
        assert store.stats()["degraded"] == store.degraded


class TestLeases:
    def test_exclusive_acquire(self, tmp_path):
        store = SharedL2Store(str(tmp_path))
        assert store.acquire_lease("k", "replica-0", ttl_s=30.0)
        assert not store.acquire_lease("k", "replica-1", ttl_s=30.0)
        holder = store.lease_holder("k")
        assert holder["owner"] == "replica-0"
        assert holder["expires"] > time.time()

    def test_release_then_reacquire(self, tmp_path):
        store = SharedL2Store(str(tmp_path))
        assert store.acquire_lease("k", "replica-0", ttl_s=30.0)
        store.release_lease("k", "replica-0")
        assert store.lease_holder("k") is None
        assert store.acquire_lease("k", "replica-1", ttl_s=30.0)

    def test_release_is_owner_checked(self, tmp_path):
        store = SharedL2Store(str(tmp_path))
        assert store.acquire_lease("k", "replica-0", ttl_s=30.0)
        store.release_lease("k", "replica-1")  # not yours: no-op
        assert store.lease_holder("k")["owner"] == "replica-0"

    def test_expired_lease_is_stolen(self, tmp_path):
        store = SharedL2Store(str(tmp_path))
        assert store.acquire_lease("k", "dead-replica", ttl_s=0.0)
        assert store.acquire_lease("k", "replica-1", ttl_s=30.0)
        assert store.lease_holder("k")["owner"] == "replica-1"

    def test_unreadable_lease_is_stolen(self, tmp_path):
        store = SharedL2Store(str(tmp_path))
        path = store._lease_path("k")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("not json")
        aged = time.time() - 31.0
        os.utime(path, (aged, aged))
        assert store.acquire_lease("k", "replica-1", ttl_s=30.0)

    def test_fresh_empty_lease_is_held_until_the_ttl(self, tmp_path):
        # A winner creates its lease file before it writes the record;
        # a contender reading it in between must not take the lease.
        store = SharedL2Store(str(tmp_path))
        path = store._lease_path("k")
        open(path, "w", encoding="utf-8").close()
        assert store.lease_holder("k") is None
        assert not store.acquire_lease("k", "replica-1", ttl_s=30.0)
        assert store.lease_held("k", ttl_s=30.0)
        aged = time.time() - 31.0
        os.utime(path, (aged, aged))
        assert not store.lease_held("k", ttl_s=30.0)
        assert store.acquire_lease("k", "replica-1", ttl_s=30.0)
        assert store.lease_holder("k")["owner"] == "replica-1"

    def test_leases_are_per_key(self, tmp_path):
        store = SharedL2Store(str(tmp_path))
        assert store.acquire_lease("k1", "replica-0", ttl_s=30.0)
        assert store.acquire_lease("k2", "replica-1", ttl_s=30.0)

"""Shared L2 store unit tests: bodies and degradation."""

import json

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

"""The server's L1 result memo: LRU bounds, stats and process hygiene.

A restarted replica comes back warm from the shared L2 (see
``test_server.py::TestRestartWarmth``); the L1 itself is in-process
only.
"""

import os

import pytest

from repro.errors import ExperimentError
from repro.service import AnalysisServer, ServiceConfig
from repro.workloads import clear_caches


def l1(cache_max: int):
    """A (never started) server's L1 memo."""
    server = AnalysisServer(
        ServiceConfig(socket_path="unused.sock", cache_max=cache_max)
    )
    return server.cache


class TestLRU:
    def test_get_put_and_stats(self):
        cache = l1(4)
        assert cache.get("k1") is None
        cache.put("k1", {"v": 1})
        assert cache.get("k1") == {"v": 1}
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5
        assert stats["entries"] == 1 and stats["max_entries"] == 4

    def test_eviction_is_least_recently_used(self):
        cache = l1(2)
        cache.put("a", {"v": 1})
        cache.put("b", {"v": 2})
        assert cache.get("a") is not None  # refresh 'a'
        cache.put("c", {"v": 3})  # evicts 'b'
        assert cache.get("b") is None
        assert cache.get("a") is not None
        assert cache.get("c") is not None

    def test_put_overwrites_in_place(self):
        cache = l1(2)
        cache.put("a", {"v": 1})
        cache.put("a", {"v": 2})
        assert len(cache) == 1
        assert cache.get("a") == {"v": 2}

    def test_bad_bound_rejected(self):
        with pytest.raises(ExperimentError):
            l1(0)


class TestProcessHygiene:
    def test_clear_caches_clears_service_caches(self):
        cache = l1(4)
        cache.put("k1", {"v": 1})
        assert cache.get("k1") is not None
        clear_caches()  # the workloads-level entry point
        assert len(cache) == 0
        assert cache.stats()["hits"] == 0

    def test_clear_service_caches_direct(self):
        cache = l1(4)
        cache.put("k1", {"v": 1})
        cache.clear()
        assert cache.get("k1") is None

    def test_forked_child_starts_cold_and_detached(self):
        cache = l1(4)
        cache.put("k1", {"v": 1})
        pid = os.fork()
        if pid == 0:
            # Child: the at-fork reset dropped every entry.
            os._exit(0 if len(cache) == 0 else 1)
        _, wait_status = os.waitpid(pid, 0)
        assert os.WIFEXITED(wait_status)
        assert os.WEXITSTATUS(wait_status) == 0
        # Parent state untouched: entry present, memo still writable.
        assert cache.get("k1") == {"v": 1}
        cache.put("k2", {"v": 2})
        assert len(cache) == 2

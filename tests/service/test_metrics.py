"""Service metrics unit tests: quantiles and snapshots."""

import pytest

from repro.service.metrics import RESERVOIR, ServiceMetrics, quantile


class TestQuantile:
    def test_empty_and_singleton(self):
        assert quantile([], 0.5) == 0.0
        assert quantile([7.0], 0.95) == 7.0

    def test_median_interpolates(self):
        assert quantile([1.0, 2.0, 3.0, 4.0], 0.5) == pytest.approx(2.5)

    def test_extremes(self):
        values = [float(i) for i in range(10)]
        assert quantile(values, 0.0) == 0.0
        assert quantile(values, 1.0) == 9.0

    def test_p95_in_range(self):
        values = [float(i) for i in range(100)]
        assert 90.0 <= quantile(values, 0.95) <= 99.0


class TestServiceMetrics:
    def test_latency_summary_per_kind(self):
        metrics = ServiceMetrics()
        for ms in (1.0, 2.0, 3.0):
            metrics.observe("bound", ms)
        metrics.observe("sweep", 50.0)
        summary = metrics.latency_summary()
        assert summary["bound"]["count"] == 3
        assert summary["bound"]["p50_ms"] == pytest.approx(2.0)
        assert summary["bound"]["max_ms"] == pytest.approx(3.0)
        assert summary["sweep"]["p95_ms"] == pytest.approx(50.0)

    def test_reservoir_is_bounded(self):
        metrics = ServiceMetrics()
        for i in range(RESERVOIR + 100):
            metrics.observe("bound", float(i))
        summary = metrics.latency_summary()["bound"]
        assert summary["count"] == RESERVOIR
        assert summary["max_ms"] == RESERVOIR + 99  # the most recent

    def test_snapshot_shape(self):
        metrics = ServiceMetrics()
        metrics.count("requests:bound", 3)
        metrics.count("computed")
        metrics.count("coalesced", 2)
        metrics.count("cache_hits")
        snapshot = metrics.snapshot(
            queue_depth=1, in_flight=2,
            cache_stats={"entries": 4}, workers=2,
            worker_restarts=1, draining=False,
        )
        assert snapshot["requests"] == {"bound": 3}
        assert snapshot["computed"] == 1
        assert snapshot["coalesced"] == 2
        assert snapshot["cache_hits"] == 1
        assert snapshot["queue_depth"] == 1
        assert snapshot["in_flight"] == 2
        assert snapshot["workers"] == 2
        assert snapshot["worker_restarts"] == 1
        assert snapshot["cache"]["entries"] == 4
        assert "latency_ms" in snapshot


class TestShardCounters:
    def test_unlabelled_metrics_have_no_shard_keys(self):
        metrics = ServiceMetrics()
        metrics.count_shard("l1_hits")  # no label: dropped
        snapshot = metrics.snapshot(
            queue_depth=0, in_flight=0, cache_stats={},
            workers=1, worker_restarts=0, draining=False,
        )
        assert "shard" not in snapshot
        assert "shards" not in snapshot

    def test_shard_label_flows_into_the_snapshot(self):
        metrics = ServiceMetrics(shard="replica-1")
        metrics.count_shard("l1_hits", 3)
        metrics.count_shard("l2_hits")
        snapshot = metrics.snapshot(
            queue_depth=0, in_flight=0, cache_stats={},
            workers=1, worker_restarts=0, draining=False,
        )
        assert snapshot["shard"] == "replica-1"
        assert snapshot["shards"] == {
            "replica-1": {"l1_hits": 3, "l2_hits": 1}
        }

    def test_shard_summary_is_sorted_and_stable(self):
        metrics = ServiceMetrics(shard="b")
        metrics.count_shard("y")
        metrics.count_shard("x")
        summary = metrics.shard_summary()
        assert list(summary) == ["b"]
        assert list(summary["b"]) == ["x", "y"]
        assert summary == metrics.shard_summary()

    def test_labelled_shard_snapshot_even_without_counts(self):
        metrics = ServiceMetrics(shard="replica-0")
        snapshot = metrics.snapshot(
            queue_depth=0, in_flight=0, cache_stats={},
            workers=1, worker_restarts=0, draining=False,
        )
        assert snapshot["shard"] == "replica-0"
        assert snapshot["shards"] == {}

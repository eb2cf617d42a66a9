"""Service metrics: counters, gauges, and per-kind latency quantiles.

Extends the PR-3 telemetry idea (counters + stage timers aggregated
across a sweep) to a long-running server: counters accumulate for the
process lifetime, latencies keep a bounded per-request-kind reservoir
(the most recent observations), and :meth:`ServiceMetrics.snapshot`
produces the JSON body served by the ``metrics`` request — queue
depth, cache hit rate, p50/p95 latency per request type, worker
restarts, single-flight savings.
"""

from __future__ import annotations

import time
from collections import Counter, deque

#: Latencies kept per request kind (the most recent ones).
RESERVOIR = 512


def quantile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolation quantile of an ascending list."""
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    position = q * (len(sorted_values) - 1)
    low = int(position)
    high = min(low + 1, len(sorted_values) - 1)
    fraction = position - low
    return (
        sorted_values[low] * (1.0 - fraction)
        + sorted_values[high] * fraction
    )


class ServiceMetrics:
    """Process-lifetime service counters and latency reservoirs.

    ``shard`` names the replica this process serves in a fleet (its
    shard id); :meth:`count_shard` records counters under that label
    so fleet-wide aggregation can tell replicas apart.  A non-fleet
    server has no shard and no ``shards`` section in its snapshot.
    """

    def __init__(self, shard: str | None = None):
        self.started = time.monotonic()
        self.shard = shard
        self.counters: Counter = Counter()
        #: counter name -> count, under this replica's shard id
        self.shard_counters: Counter = Counter()
        self._latency_ms: dict[str, deque] = {}

    def count(self, name: str, value: int = 1) -> None:
        self.counters[name] += value

    def count_shard(self, name: str, value: int = 1) -> None:
        """Record a counter under this replica's shard id."""
        if self.shard is None:
            return  # not part of a fleet: no per-shard dimension
        self.shard_counters[name] += value

    def shard_summary(self) -> dict:
        """shard id -> {counter: value}, the counters sorted; empty
        until a counter is recorded."""
        if not self.shard_counters:
            return {}
        return {self.shard: dict(sorted(self.shard_counters.items()))}

    def observe(self, kind: str, elapsed_ms: float) -> None:
        """Record one request's latency under its kind."""
        bucket = self._latency_ms.get(kind)
        if bucket is None:
            bucket = self._latency_ms[kind] = deque(maxlen=RESERVOIR)
        bucket.append(elapsed_ms)

    @property
    def uptime_s(self) -> float:
        return time.monotonic() - self.started

    def latency_summary(self) -> dict:
        summary = {}
        for kind in sorted(self._latency_ms):
            values = sorted(self._latency_ms[kind])
            summary[kind] = {
                "count": len(values),
                "p50_ms": round(quantile(values, 0.50), 3),
                "p95_ms": round(quantile(values, 0.95), 3),
                "max_ms": round(values[-1], 3),
            }
        return summary

    def snapshot(self, *, queue_depth: int = 0,
                 in_flight: int = 0,
                 cache_stats: dict | None = None,
                 workers: int = 0,
                 worker_restarts: int = 0,
                 draining: bool = False) -> dict:
        """The ``metrics`` response body."""
        requests = {
            name.split(":", 1)[1]: count
            for name, count in sorted(self.counters.items())
            if name.startswith("requests:")
        }
        body = {
            "uptime_s": round(self.uptime_s, 3),
            "draining": draining,
            "queue_depth": queue_depth,
            "in_flight": in_flight,
            "workers": workers,
            "worker_restarts": worker_restarts,
            "requests": requests,
            "computed": self.counters.get("computed", 0),
            "coalesced": self.counters.get("coalesced", 0),
            "cache_hits": self.counters.get("cache_hits", 0),
            "rejections": self.counters.get("rejections", 0),
            "errors": self.counters.get("errors", 0),
            "deadline_expirations": self.counters.get(
                "deadline_expirations", 0
            ),
            "static_answers": self.counters.get("static_answers", 0),
            "cache": dict(cache_stats or {}),
            "latency_ms": self.latency_summary(),
        }
        if self.shard is not None:
            body["shard"] = self.shard
            body["shards"] = self.shard_summary()
        return body

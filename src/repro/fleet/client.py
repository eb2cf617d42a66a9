"""Shard-map-owning fleet client with failover.

A :class:`FleetClient` fronts N replicas of the PR-5
:class:`~repro.service.server.AnalysisServer`.  It canonicalizes each
request locally (the same :func:`~repro.service.protocol.canonicalize`
the servers use), routes the resulting content-digest key through the
consistent-hash ring, and sends it to the key's **owner replica** over
a plain :class:`~repro.service.client.ServiceClient` connection.

Owner routing is the fleet's only coordination: every duplicate of a
key — from any client — lands on the same replica, whose per-process
single-flight table collapses them into one worker job, and the
owner publishes the body to the shared L2 (:mod:`repro.fleet.store`)
for every other replica to read.  Two replicas compute one key only
when a request bypasses the owner (a failover while the owner is
still computing, or a client pinned to another replica); the cost is
one extra job that produces the same bytes.

Operational behavior:

* **failover** — a dead or partitioned replica (connect/send/read
  failure) is marked down and the request replays against the key's
  next ring successor; the PR-4 :class:`~repro.resilience.retry.
  RetryPolicy` bounds full passes over the candidate list, with
  backoff jitter keyed by the content key.  Down replicas are probed
  again on later requests, so a recovered replica rejoins without a
  topology change;
* **admission rejections** (typed ``rejected`` responses, code
  ``busy``) are retried on the same preference order after the
  server-suggested ``retry_after_s`` (capped), within the same retry
  budget;
* **draining replicas** — a ``rejected`` response with code
  ``unavailable`` comes from a replica that computes nothing new, so
  the request moves on to the key's next ring successor within the
  same pass;
* **chaos** — before each send the ``fleet.replica`` fault site is
  checked with the target replica's name as the path; a matched
  ``io-error`` invokes the fabric's partitioner against that replica
  (the mid-burst SIGKILL of the partition drill) and the normal
  failover path serves the request from a successor.
"""

from __future__ import annotations

import time

from ..errors import ExperimentError
from ..resilience import faults as _faults
from ..resilience.retry import RetryPolicy
from ..service.client import ServiceClient
from ..service.protocol import Response, canonicalize
from .ring import DEFAULT_VNODES, HashRing


class FleetClient:
    """Route requests across a replica fleet by content key."""

    def __init__(self, topology: dict[str, str], *,
                 vnodes: int = DEFAULT_VNODES,
                 retry: RetryPolicy | None = None,
                 timeout: float = 30.0,
                 partitioner=None):
        if not topology:
            raise ExperimentError(
                "fleet topology needs at least one replica"
            )
        #: replica name -> endpoint ("unix:/path" or "tcp:host:port")
        self.topology = dict(topology)
        self.ring = HashRing(self.topology, vnodes=vnodes)
        self.timeout = timeout
        self.retry = retry if retry is not None else RetryPolicy(
            retries=2, base_delay_s=0.05, max_delay_s=0.5
        )
        #: fabric hook used by the ``fleet.replica`` chaos site
        self.partitioner = partitioner
        self._conns: dict[str, ServiceClient] = {}
        self._down: set[str] = set()
        self.requests = 0
        self.failovers = 0
        self.rejected_retries = 0

    # -- membership ----------------------------------------------------

    def add_replica(self, name: str, endpoint: str) -> None:
        """Join a replica; only its new arcs' keys change owner."""
        self.ring = self.ring.add(name)
        self.topology[name] = endpoint

    def remove_replica(self, name: str) -> None:
        """Depart a replica; only its own keys change owner."""
        self.ring = self.ring.remove(name)
        self.topology.pop(name, None)
        self._down.discard(name)
        self._drop_connection(name)

    def mark_down(self, name: str) -> None:
        if name in self.topology:
            self._down.add(name)
        self._drop_connection(name)

    def mark_up(self, name: str) -> None:
        self._down.discard(name)

    # -- routing -------------------------------------------------------

    def route(self, key: str) -> list[str]:
        """Every replica, in preference order for ``key``: the key's
        ring successors, owner first, with down replicas at the tail
        (where they are probed again for recovery)."""
        order = self.ring.owners(key, len(self.ring))
        healthy = [name for name in order if name not in self._down]
        downs = [name for name in order if name in self._down]
        return healthy + downs

    # -- connections ---------------------------------------------------

    def _connection(self, name: str) -> ServiceClient:
        conn = self._conns.get(name)
        if conn is None:
            conn = ServiceClient(
                self.topology[name], timeout=self.timeout
            ).connect()
            self._conns[name] = conn
        return conn

    def _drop_connection(self, name: str) -> None:
        conn = self._conns.pop(name, None)
        if conn is not None:
            conn.close()

    def close(self) -> None:
        for name in list(self._conns):
            self._drop_connection(name)

    def __enter__(self) -> "FleetClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- requests ------------------------------------------------------

    def _try_replica(self, name: str, kind: str, params: dict | None,
                     deadline_s: float | None) -> Response:
        spec = _faults.check("fleet.replica", path=name)
        if spec is not None and spec.kind == "io-error" \
                and self.partitioner is not None:
            # The drill: the fabric partitions this replica now, so
            # the send below fails and failover takes over.
            self.partitioner(name)
        conn = self._connection(name)
        return conn.request(kind, params, deadline_s=deadline_s)

    def request(self, kind: str, params: dict | None = None, *,
                deadline_s: float | None = None) -> Response:
        """Send one request to the fleet, failing over as needed."""
        request = canonicalize(kind, params)
        self.requests += 1
        attempt = 0
        last_error: Exception | None = None
        last_response: Response | None = None
        while self.retry.allows(attempt):
            attempt += 1
            if attempt > 1:
                time.sleep(
                    self.retry.backoff_s(attempt - 1, request.key)
                )
            for name in self.route(request.key):
                try:
                    response = self._try_replica(
                        name, kind, params, deadline_s
                    )
                except ExperimentError as exc:
                    # Connect/send/read failure: the replica is gone
                    # (or partitioned).  Route around it.
                    last_error = exc
                    self.mark_down(name)
                    self.failovers += 1
                    continue
                self.mark_up(name)
                if response.status == "rejected":
                    last_response = response
                    if response.error.get("code") == "unavailable":
                        # Draining: this replica will not compute the
                        # key, but its successor can.
                        self.failovers += 1
                        continue
                    # Admission pushback, not a failure — the body
                    # will exist once load drains.  Honor (a capped)
                    # retry_after_s and try the next pass.
                    self.rejected_retries += 1
                    retry_after = float(
                        response.error.get("retry_after_s", 0.0)
                    )
                    if retry_after > 0:
                        time.sleep(min(retry_after, 0.25))
                    break
                return response
        if last_response is not None:
            return last_response
        raise ExperimentError(
            f"fleet request {request.key} failed on every replica "
            f"after {attempt} passes: {last_error}"
        )

    def request_many(self, frames: list[tuple]) -> list[Response]:
        """Serve ``(kind, params)`` frames in order (with failover)."""
        return [self.request(kind, params) for kind, params in frames]

    # -- observability -------------------------------------------------

    def stats(self) -> dict:
        return {
            "replicas": list(self.ring.nodes),
            "down": sorted(self._down),
            "requests": self.requests,
            "failovers": self.failovers,
            "rejected_retries": self.rejected_retries,
        }

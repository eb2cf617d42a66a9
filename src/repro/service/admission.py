"""Admission control: bounded queues and per-client in-flight limits.

A server without admission control converts overload into unbounded
memory growth and unbounded latency.  This one refuses early instead:

* the **queue limit** bounds how many *computations* (single-flight
  leaders) may be queued-or-running at once — coalesced followers and
  cache hits are free, which is exactly the point of batching;
* the **per-client limit** bounds how many requests one connection may
  have in flight, so a single greedy client cannot starve the rest.

A refused request gets a typed ``rejected`` response with a
``retry_after_s`` hint (a deterministic backoff seeded by how far over
the limit the server is), the NDJSON analogue of HTTP 429 +
``Retry-After``.  All state lives on the event-loop thread; no locks.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from ..errors import ExperimentError

#: A refusal's ``retry_after_s`` hint; a full queue scales it by the
#: overload.
RETRY_AFTER_S = 0.05


@dataclass(frozen=True)
class Rejection:
    """Why a request was refused, and when to come back."""

    reason: str
    retry_after_s: float


class AdmissionController:
    """Bounded admission for compute requests."""

    def __init__(self, queue_limit: int = 64,
                 client_limit: int = 8):
        if queue_limit < 1:
            raise ExperimentError(
                f"queue_limit must be >= 1, got {queue_limit}"
            )
        if client_limit < 1:
            raise ExperimentError(
                f"client_limit must be >= 1, got {client_limit}"
            )
        self.queue_limit = queue_limit
        self.client_limit = client_limit
        self._queued = 0
        self._per_client: Counter = Counter()

    @property
    def queue_depth(self) -> int:
        """Computations currently admitted (queued or running)."""
        return self._queued

    @property
    def in_flight(self) -> int:
        """Requests currently admitted (leaders and followers)."""
        return self._per_client.total()

    def admit(self, client: str, leader: bool) -> Rejection | None:
        """Try to admit one request; returns a :class:`Rejection` or
        None (admitted — the caller must :meth:`release` later).

        ``leader`` marks a request that will run its own computation;
        followers and cache probes only count against their client.
        """
        if self._per_client[client] >= self.client_limit:
            return Rejection(
                reason=(
                    f"client in-flight limit ({self.client_limit}) "
                    "reached"
                ),
                retry_after_s=RETRY_AFTER_S,
            )
        if leader and self._queued >= self.queue_limit:
            # Back off harder the deeper the overload.
            overload = 1 + self._queued - self.queue_limit
            return Rejection(
                reason=f"queue full ({self.queue_limit} computations "
                       "in flight)",
                retry_after_s=RETRY_AFTER_S * overload,
            )
        self._per_client[client] += 1
        if leader:
            self._queued += 1
        return None

    def release(self, client: str, leader: bool) -> None:
        """Return an admitted request's capacity."""
        if self._per_client[client] > 0:
            self._per_client[client] -= 1
            if self._per_client[client] == 0:
                del self._per_client[client]
        if leader and self._queued > 0:
            self._queued -= 1

"""Single-flight deduplication for identical concurrent requests.

When N clients ask for the same content key at the same time, exactly
one computation runs; the other N-1 requests *coalesce* onto it and
receive the same result object.  This is the service-side dual of the
sweep engine's grid dedup: there the duplicate cells are known up
front, here they arrive concurrently over sockets.

The table is asyncio-native and must only be touched from the event
loop thread.  A leader that fails delivers its exception to every
follower (they would have failed identically), and the key is removed
before delivery so a retry starts a fresh flight.
"""

from __future__ import annotations

import asyncio


class SingleFlight:
    """An in-flight table mapping content keys to shared futures."""

    def __init__(self) -> None:
        self._inflight: dict[str, asyncio.Future] = {}

    def __len__(self) -> int:
        return len(self._inflight)

    def leader(self, key: str) -> bool:
        """True when ``key`` has no flight yet (caller becomes leader)."""
        return key not in self._inflight

    def begin(self, key: str) -> asyncio.Future:
        """Open a flight for ``key``; returns the future to resolve."""
        assert key not in self._inflight, f"duplicate flight for {key}"
        future = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        return future

    def join(self, key: str) -> asyncio.Future | None:
        """The existing flight for ``key``, or None when the caller
        must lead."""
        return self._inflight.get(key)

    def finish(self, key: str, result=None,
               error: BaseException | None = None) -> None:
        """Resolve and close the flight for ``key``."""
        future = self._inflight.pop(key, None)
        if future is None or future.done():
            return
        if error is not None:
            future.set_exception(error)
        else:
            future.set_result(result)

"""Single-flight table unit tests (asyncio-native)."""

import asyncio

import pytest

from repro.service.singleflight import SingleFlight


def run(coroutine):
    return asyncio.run(coroutine)


class TestSingleFlight:
    def test_leader_then_followers(self):
        async def scenario():
            flights = SingleFlight()
            assert flights.leader("k")
            future = flights.begin("k")
            assert not flights.leader("k")
            joined = flights.join("k")
            assert joined is future
            flights.finish("k", result={"v": 1})
            assert await future == {"v": 1}
            assert len(flights) == 0

        run(scenario())

    def test_error_reaches_every_follower(self):
        async def scenario():
            flights = SingleFlight()
            future = flights.begin("k")
            # Each follower awaits its own shield, as the server does.
            waiters = [asyncio.shield(future) for _ in range(3)]
            flights.finish("k", error=RuntimeError("boom"))
            for waiter in waiters:
                with pytest.raises(RuntimeError, match="boom"):
                    await waiter
            # The key is free again: a retry starts a fresh flight.
            assert flights.leader("k")

        run(scenario())

    def test_finish_unknown_key_is_noop(self):
        async def scenario():
            flights = SingleFlight()
            flights.finish("ghost", result=1)
            assert len(flights) == 0

        run(scenario())

    def test_join_missing_flight_returns_none(self):
        async def scenario():
            flights = SingleFlight()
            assert flights.join("k") is None

        run(scenario())

    def test_follower_cancellation_does_not_kill_the_flight(self):
        async def scenario():
            flights = SingleFlight()
            future = flights.begin("k")
            waiter = asyncio.shield(future)
            await asyncio.sleep(0)
            waiter.cancel()
            await asyncio.sleep(0)
            # The shared future survives the follower's cancellation.
            flights.finish("k", result={"v": 2})
            assert await future == {"v": 2}

        run(scenario())

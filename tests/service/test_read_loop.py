"""The connection read loop, byte for byte over a raw UNIX socket.

Warm hits, control kinds, ``usage`` errors and rejections are answered
in one synchronous step per frame; only a cold frame gets a task.  An
``ok`` reply splices the L1's stored body bytes into its envelope, so
every reply line must equal ``encode_line`` of its own decoding.
"""

import asyncio
import json
import threading

import pytest

from repro.service import ServiceClient, ServiceConfig, start_in_thread
from repro.service.protocol import encode_line

#: one request of every compute kind, each cheap to compute
KIND_PARAMS = [
    ("run", {"kernel": "lfk1"}),
    ("bound", {"kernel": "lfk1"}),
    ("mac", {"kernel": "lfk1"}),
    ("ax", {"kernel": "lfk1"}),
    ("lint", {"kernel": "lfk1", "min_severity": "info"}),
    ("analyze", {"kernel": "lfk1"}),
    ("advise", {"kernel": "lfk1"}),
    ("report", {"experiments": ["table1"]}),
    ("sweep", {"kernels": ["lfk1"], "variants": ["default"]}),
]


class Wire:
    """One raw NDJSON connection: lines out, raw reply lines in.

    It borrows a :class:`ServiceClient`'s socket, whose fork hook closes
    it in the forked workers, so closing it here ends the connection.
    """

    def __init__(self, endpoint: str, timeout: float = 30.0):
        self.client = ServiceClient(endpoint, timeout=timeout).connect()

    def send(self, *frames) -> None:
        """Send every frame in one write; a ``bytes`` frame goes as is."""
        self.client._sock.sendall(b"".join(
            frame if isinstance(frame, bytes) else encode_line(frame)
            for frame in frames
        ))

    def line(self) -> bytes:
        line = self.client._rfile.readline()
        assert line, "server closed the connection"
        return line

    def reply(self) -> dict:
        return json.loads(self.line())

    def ask(self, frame: dict) -> dict:
        self.send(frame)
        return self.reply()

    def close(self) -> None:
        self.client.close()

    def __enter__(self) -> "Wire":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    root = tmp_path_factory.mktemp("loop")
    thread = start_in_thread(ServiceConfig(
        socket_path=str(root / "loop.sock"), workers=1, client_limit=32,
        shard_id="s0", l2_path=str(root / "l2"),
    ))
    yield thread
    thread.stop()


@pytest.fixture()
def wire(server):
    with Wire(server.endpoints[0]) as active:
        yield active


def _frame(request_id, kind, params, **extra) -> dict:
    return {"id": request_id, "kind": kind, "params": params, **extra}


def _shard_counter(server, name: str) -> int:
    return server.server.metrics.shard_counters[("s0", name)]


class TestRequestIds:
    """A reply carries its request's ``id`` exactly as sent."""

    @pytest.mark.parametrize("request_id", [7, 0, "", "r1", -3],
                             ids=["7", "0", "empty", "r1", "-3"])
    def test_string_or_integer_id_is_echoed_unchanged(self, wire,
                                                      request_id):
        reply = wire.ask({"id": request_id, "kind": "ping"})
        assert reply["status"] == "ok"
        assert reply["id"] == request_id
        assert type(reply["id"]) is type(request_id)

    def test_integer_id_is_echoed_on_a_compute_reply(self, wire):
        reply = wire.ask(_frame(7, "bound", {"kernel": "lfk12"}))
        assert reply["status"] == "ok"
        assert reply["id"] == 7 and type(reply["id"]) is int

    def test_client_matches_an_integer_id(self, server):
        with ServiceClient(server.endpoints[0], timeout=5.0) as client:
            response = client.request("ping", request_id=7)
        assert response.ok
        assert response.id == 7 and type(response.id) is int

    @pytest.mark.parametrize("frame", [
        {"kind": "ping"},
        {"id": None, "kind": "ping"},
    ])
    def test_missing_or_null_id_gets_an_auto_id(self, wire, frame):
        reply = wire.ask(frame)
        assert reply["status"] == "ok"
        assert reply["id"].startswith("auto-")

    @pytest.mark.parametrize("request_id", [
        False, True, [1], {"n": 1}, 1.5,
    ], ids=["false", "true", "list", "object", "float"])
    def test_other_id_is_a_usage_error(self, server, wire, request_id):
        computed = server.server.metrics.counters["computed"]
        reply = wire.ask(_frame(request_id, "bound", {"kernel": "lfk2"}))
        assert reply["status"] == "error"
        assert reply["error"]["code"] == "usage"
        assert reply["error"]["message"] == \
            "'id' must be a string or an integer"
        assert reply["id"] == ""
        assert server.server.metrics.counters["computed"] == computed


class TestSplicedLines:
    """Every ``ok`` line equals ``encode_line`` of its decoding."""

    @pytest.mark.parametrize("kind,params", KIND_PARAMS,
                             ids=[kind for kind, _ in KIND_PARAMS])
    def test_every_origin_is_byte_identical(self, server, wire, kind,
                                            params):
        lines = []
        # Two pipelined cold twins: one computes, one coalesces.
        wire.send(_frame("a", kind, params), _frame("b", kind, params))
        lines += [wire.line(), wire.line()]
        wire.send(_frame("l1", kind, params))
        lines.append(wire.line())
        l2_hits = _shard_counter(server, "l2_hits")
        server.server.cache.clear()
        wire.send(_frame("l2", kind, params))
        lines.append(wire.line())
        assert _shard_counter(server, "l2_hits") == l2_hits + 1

        replies = [json.loads(line) for line in lines]
        assert sorted(r["origin"] for r in replies) == \
            ["cache", "cache", "coalesced", "computed"]
        assert [r["status"] for r in replies] == ["ok"] * 4
        for line in lines:
            assert line == encode_line(json.loads(line))
        bodies = {json.dumps(r["body"], sort_keys=True) for r in replies}
        assert len(bodies) == 1


class TestPipelinedConnection:
    """One reply per id, and hits do not wait for a cold frame."""

    def test_hits_overtake_a_cold_frame(self, wire):
        for kind in ("bound", "mac"):
            assert wire.ask(_frame("warm", kind,
                                   {"kernel": "lfk3"}))["status"] == "ok"
        wire.send(
            _frame("cold", "run", {"kernel": "heat1d"}),
            _frame("h1", "bound", {"kernel": "lfk3"}),
            {"id": "p", "kind": "ping"},
            b'{"id": "m", "kind": \n',
            _frame("u", "nope", {}),
            _frame("h2", "mac", {"kernel": "lfk3"}),
        )
        replies = [wire.reply() for _ in range(6)]
        ids = [r["id"] for r in replies]
        assert sorted(ids) == sorted(["cold", "h1", "p", "", "u", "h2"])
        by_id = {r["id"]: r for r in replies}
        assert by_id["cold"]["origin"] == "computed"
        assert by_id["h1"]["origin"] == by_id["h2"]["origin"] == "cache"
        assert by_id["p"]["body"] == {"pong": True}
        assert by_id[""]["error"]["code"] == "usage"
        assert by_id["u"]["error"]["code"] == "usage"
        assert ids.index("h1") < ids.index("cold")
        assert ids.index("h2") < ids.index("cold")
        # Nothing else was queued on the connection.
        assert wire.ask({"id": "after", "kind": "ping"})["id"] == "after"


class TestLongFrames:
    """A frame longer than the 64 KiB line limit costs only itself."""

    def test_each_long_frame_gets_one_usage_error(self, server):
        def long_frame(size):
            return encode_line(_frame("long", "bound", {
                "kernel": "lfk1", "pad": "x" * size,
            }))

        errors = server.server.metrics.counters["errors"]
        with Wire(server.endpoints[0]) as active:
            active.send(long_frame(70_000), {"id": "p1", "kind": "ping"})
            replies = [active.reply(), active.reply()]
            # Over twice the 64 KiB read size: the server drops the
            # frame's start before its newline has arrived.
            active.send(long_frame(300_000), {"id": "p2", "kind": "ping"})
            replies += [active.reply(), active.reply()]
            assert active.ask({"id": "p3", "kind": "ping"})["id"] == "p3"
        assert [r["id"] for r in replies] == ["", "p1", "", "p2"]
        for reply in replies[0::2]:
            assert reply["status"] == "error"
            assert reply["error"]["code"] == "usage"
        for reply in replies[1::2]:
            assert reply["body"] == {"pong": True}
        assert server.server.metrics.counters["errors"] == errors + 2


class TestLongPipeline:
    """A client may send a whole pipeline before it reads a reply."""

    def test_pipeline_longer_than_the_socket_buffers(self, server):
        frames = [_frame(f"q{index}", "bound", {"kernel": "lfk9"})
                  for index in range(10000)]
        with Wire(server.endpoints[0], timeout=20.0) as active:
            assert active.ask(frames[0])["status"] == "ok"
            # About 0.6 MB of frames and 2.3 MB of replies: more than
            # the socket buffers hold while the client is still sending.
            active.send(*frames)
            replies = [active.reply() for _ in frames]
        assert [r["id"] for r in replies] == [f["id"] for f in frames]
        assert all(r["origin"] == "cache" for r in replies)


class TestDeadlinesOnHits:
    """A valid ``deadline_s`` does not keep a hit from the cache."""

    def test_valid_deadline_hit_is_answered_from_the_cache(self, wire):
        params = {"kernel": "lfk4"}
        assert wire.ask(_frame("w", "bound", params))["status"] == "ok"
        reply = wire.ask(_frame("d", "bound", params, deadline_s=5.0))
        assert reply["status"] == "ok" and reply["origin"] == "cache"
        reply = wire.ask(_frame("p", "bound", {**params,
                                               "deadline_s": 5.0}))
        assert reply["status"] == "ok" and reply["origin"] == "cache"

    @pytest.mark.parametrize("deadline_s", ["soon", 0, -1, True])
    def test_malformed_deadline_on_a_warm_key_is_a_usage_error(
            self, wire, deadline_s):
        params = {"kernel": "lfk4"}
        assert wire.ask(_frame("w", "bound", params))["status"] == "ok"
        reply = wire.ask(_frame("d", "bound", params,
                                deadline_s=deadline_s))
        assert reply["status"] == "error"
        assert reply["error"]["code"] == "usage"
        assert reply["id"] == "d"


class TestDrainingHits:
    """A draining replica answers hits and refuses cold frames."""

    def test_draining_replica_answers_hits(self, tmp_path):
        thread = start_in_thread(ServiceConfig(
            socket_path=str(tmp_path / "drain.sock"), workers=1,
        ))
        try:
            with Wire(thread.endpoints[0]) as active:
                warm = _frame("w", "bound", {"kernel": "lfk5"})
                assert active.ask(warm)["origin"] == "computed"
                assert active.ask({"id": "d", "kind": "drain"})[
                    "status"] == "ok"
                assert active.ask({"id": "h", "kind": "healthz"})[
                    "body"]["status"] == "draining"
                active.send(
                    _frame("h1", "bound", {"kernel": "lfk5"}),
                    _frame("c", "bound", {"kernel": "lfk6"}),
                    _frame("h2", "bound", {"kernel": "lfk5"}),
                )
                replies = {r["id"]: r
                           for r in (active.reply() for _ in range(3))}
                for hit in ("h1", "h2"):
                    assert replies[hit]["status"] == "ok"
                    assert replies[hit]["origin"] == "cache"
                assert replies["c"]["status"] == "rejected"
                assert replies["c"]["error"]["code"] == "unavailable"
        finally:
            thread.stop()
        assert not thread.thread.is_alive()


class TestNoTaskPerHit:
    """A warm hit is answered without creating an asyncio task."""

    @staticmethod
    def _set_task_factory(server, factory) -> None:
        loop = server.loop
        done = threading.Event()

        def install():
            loop.set_task_factory(factory)
            done.set()

        loop.call_soon_threadsafe(install)
        assert done.wait(timeout=10.0)

    def test_warm_hits_create_no_task(self, server, wire):
        params = {"kernel": "lfk7"}
        assert wire.ask(_frame("w", "bound", params))["status"] == "ok"
        created: list = []

        def counting_factory(loop, coro, **kwargs):
            created.append(coro.__qualname__)
            return asyncio.Task(coro, loop=loop, **kwargs)

        self._set_task_factory(server, counting_factory)
        try:
            for index in range(20):
                reply = wire.ask(_frame(index, "bound", params))
                assert reply["origin"] == "cache"
            wire.send(*(_frame(f"p{index}", "bound", params)
                        for index in range(20)))
            assert all(wire.reply()["origin"] == "cache"
                       for _ in range(20))
            assert wire.ask({"id": "p", "kind": "ping"})["status"] == "ok"
            assert created == []
            # The counter does see the tasks of a cold frame.
            reply = wire.ask(_frame("cold", "bound", {"kernel": "lfk8"}))
            assert reply["origin"] == "computed"
            assert created
        finally:
            self._set_task_factory(server, None)

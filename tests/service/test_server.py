"""End-to-end server tests over a real UNIX socket.

One module-scoped server (1 worker) backs the cheap round-trip tests;
behaviors that need special limits (admission, deadlines, drain) spin
up their own short-lived instances.
"""

import os
import signal
import socket
import stat
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.errors import ExperimentError
from repro.service import ServiceConfig, start_in_thread
from repro.service.client import (
    ServiceClient,
    offline_response,
    parse_endpoint,
)
from repro.workloads import clear_caches, workload_names

from ..fleet.test_worker_orphans import _children, _running
from .test_protocol import NON_OBJECTS

REPO = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    sock = str(tmp_path_factory.mktemp("svc") / "macs.sock")
    thread = start_in_thread(
        ServiceConfig(socket_path=sock, workers=1, client_limit=32)
    )
    yield thread
    thread.stop()


@pytest.fixture()
def client(server):
    with ServiceClient(server.endpoints[0]) as active:
        yield active


class TestEndpoints:
    def test_parse_endpoint(self):
        assert parse_endpoint("unix:/tmp/x.sock") == \
            ("unix", "/tmp/x.sock")
        assert parse_endpoint("tcp:127.0.0.1:80") == \
            ("tcp", ("127.0.0.1", 80))
        assert parse_endpoint("127.0.0.1:80") == \
            ("tcp", ("127.0.0.1", 80))
        with pytest.raises(ExperimentError):
            parse_endpoint("nonsense")

    def test_tcp_endpoint_round_trips(self):
        thread = start_in_thread(
            ServiceConfig(host="127.0.0.1", port=0, workers=1)
        )
        try:
            endpoint = thread.endpoints[0]
            assert endpoint.startswith("tcp:")
            with ServiceClient(endpoint) as active:
                assert active.ping()
                response = active.request("bound", {"kernel": "lfk1"})
                assert response.ok
        finally:
            thread.stop()


class TestRoundTrips:
    def test_bound_request(self, client):
        response = client.request("bound", {"kernel": "lfk1"})
        assert response.ok
        assert response.kind == "bound"
        assert response.origin in ("computed", "cache")
        assert response.body["metrics"]["cpl"] > 0

    def test_ax_request(self, client):
        response = client.request("ax", {"kernel": "lfk1"})
        assert response.ok
        body = response.body
        assert body["t_a_cpl"] > 0 and body["t_x_cpl"] > 0
        assert body["overlap_lower_cpl"] <= body["overlap_upper_cpl"]

    def test_lint_request(self, client):
        response = client.request(
            "lint", {"kernel": "lfk1", "min_severity": "warning"}
        )
        assert response.ok
        assert response.body["errors"] == 0

    def test_analyze_request(self, client):
        response = client.request("analyze", {"kernel": "lfk1"})
        assert response.ok
        assert "MACS" in response.body["report"]
        assert response.render() == response.body["report"]

    def test_sweep_request(self, client):
        response = client.request(
            "sweep", {"kernels": ["lfk1"], "variants": ["default"]}
        )
        assert response.ok
        assert "lfk1" in response.body["table"]
        assert response.body["results_jsonl"].strip()

    def test_usage_error_response(self, client):
        response = client.request("bound", {"kernel": "nope"})
        assert response.status == "error"
        assert response.error["code"] == "usage"
        assert response.exit_code == 2

    def test_simulation_error_response(self, client):
        # An absurdly small cycle budget trips the watchdog in the
        # worker and comes back as a typed budget error, exit code 4.
        response = client.request(
            "run", {"kernel": "lfk1", "max_cycles": 1}
        )
        assert response.status == "error"
        assert response.error["code"] == "budget"
        assert response.exit_code == 4

    def test_malformed_line_gets_usage_error(self, server):
        with ServiceClient(server.endpoints[0]) as active:
            active._send({"kind": "bound"})  # no params: bad request
            response = active._read_response()
            assert response.status == "error"
            assert response.error["code"] == "usage"

    def test_control_requests(self, client):
        assert client.ping()
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["workers"] == 1
        metrics = client.metrics()
        assert metrics["computed"] >= 1
        assert "latency_ms" in metrics


@pytest.fixture(scope="class")
def idle_server(tmp_path_factory):
    """A server that only ever sees malformed requests."""
    sock = str(tmp_path_factory.mktemp("idle") / "macs.sock")
    thread = start_in_thread(ServiceConfig(socket_path=sock, workers=1))
    yield thread
    thread.stop()


class TestMalformedRequestsOverWire:
    """Malformed frames get ``usage`` before using a worker."""

    @pytest.mark.parametrize("frame", [
        {"kind": "run", "params": {"kernel": "lfk1", "max_cycles": -5}},
        {"kind": "run", "params": {"kernel": "lfk1", "max_cycles": 0}},
        {"kind": "run",
         "params": {"kernel": "lfk1", "max_cycles": float("nan")}},
        {"kind": "run",
         "params": {"kernel": "lfk1", "max_cycles": float("inf")}},
        {"kind": "run",
         "params": {"kernel": "lfk1", "options": "vector_length=0"}},
        {"kind": "run", "params": ["kernel", "lfk1"]},
        {"kind": "run", "params": [["kernel", "lfk1"]]},
        {"kind": "run", "params": "kernel=lfk1"},
        {"kind": "run", "params": {"kernel": "lfk1", "deadline_s": "abc"}},
        {"kind": "run",
         "params": {"kernel": "lfk1", "deadline_s": float("nan")}},
        {"kind": "run", "params": {"kernel": "lfk1"}, "deadline_s": "soon"},
        {"kind": "run", "params": {"kernel": "lfk1"}, "deadline_s": 0},
        {"kind": "run", "params": {"kernel": "lfk1"}, "deadline_s": -1},
        *({"kind": "report", "params": params} for params in NON_OBJECTS),
    ])
    def test_usage_error_and_no_computation(self, idle_server, frame):
        with ServiceClient(idle_server.endpoints[0]) as active:
            active._send({"id": "bad", **frame})
            response = active._read_response()
            assert response.status == "error"
            assert response.error["code"] == "usage", response.error
            assert response.exit_code == 2
            assert active.metrics()["computed"] == 0


class TestCachingAndSingleFlight:
    def test_second_request_is_a_cache_hit(self, client):
        first = client.request("mac", {"kernel": "lfk7"})
        second = client.request("mac", {"kernel": "lfk7"})
        assert first.ok and second.ok
        assert second.origin == "cache"
        assert second.canonical_text() == first.canonical_text()

    def test_concurrent_duplicates_coalesce(self, server, client):
        computed_before = server.server.metrics.counters["computed"]
        responses = client.request_many(
            [("run", {"kernel": "lfk9"})] * 6
        )
        assert all(r.ok for r in responses)
        origins = sorted(r.origin for r in responses)
        assert origins.count("computed") == 1
        assert origins.count("coalesced") == 5
        bodies = {r.canonical_text() for r in responses}
        assert len(bodies) == 1
        computed_after = server.server.metrics.counters["computed"]
        assert computed_after - computed_before == 1

    def test_bodies_match_offline_execution(self, client):
        for kind, params in (
            ("bound", {"kernel": "lfk2"}),
            ("ax", {"kernel": "lfk2"}),
            ("lint", {"kernel": "lfk2"}),
            ("analyze", {"kernel": "lfk2"}),
        ):
            served = client.request(kind, params)
            offline = offline_response(kind, params)
            assert served.ok and offline.ok
            assert served.canonical_text() == \
                offline.canonical_text()
            assert served.render() == offline.render()


class TestRestartWarmth:
    def test_restarted_replica_is_warm_from_its_l2(self, tmp_path):
        """The L2 is the on-disk tier: a replica restarted over the
        same directory answers from it without computing."""
        config = ServiceConfig(socket_path=str(tmp_path / "warm.sock"),
                               workers=1, l2_path=str(tmp_path / "l2"))
        frames = [("run", {"kernel": "lfk9"}),
                  ("advise", {"kernel": "lfk1"})]

        def serve_frames():
            thread = start_in_thread(config)
            try:
                with ServiceClient(thread.endpoints[0]) as active:
                    responses = [active.request(kind, params)
                                 for kind, params in frames]
                    return responses, active.metrics()
            finally:
                thread.stop()

        first, _ = serve_frames()
        assert [r.origin for r in first] == ["computed", "computed"]
        clear_caches()  # nothing in-process survives the restart
        again, metrics = serve_frames()
        assert [r.origin for r in again] == ["cache", "cache"]
        assert [r.canonical_text() for r in again] == \
            [r.canonical_text() for r in first]
        assert metrics["computed"] == 0
        assert metrics["static_answers"] == 0
        assert metrics["l2"]["hits"] == 2


class TestAdmissionOverWire:
    def test_queue_full_rejection(self):
        thread = start_in_thread(
            ServiceConfig(socket_path=None, host="127.0.0.1",
                          workers=1, queue_limit=1, client_limit=32)
        )
        try:
            with ServiceClient(thread.endpoints[0]) as active:
                responses = active.request_many([
                    ("run", {"kernel": "lfk1"}),
                    ("run", {"kernel": "lfk2"}),  # 2nd leader: full
                ])
                statuses = sorted(r.status for r in responses)
                assert statuses == ["ok", "rejected"]
                rejected = next(
                    r for r in responses if r.status == "rejected"
                )
                assert rejected.error["retry_after_s"] > 0
                assert rejected.exit_code == 6
        finally:
            thread.stop()

    def test_client_limit_rejection(self):
        thread = start_in_thread(
            ServiceConfig(host="127.0.0.1", workers=1,
                          queue_limit=32, client_limit=1)
        )
        try:
            with ServiceClient(thread.endpoints[0]) as active:
                responses = active.request_many([
                    ("run", {"kernel": "lfk3"}),
                    ("run", {"kernel": "lfk3"}),
                ])
                statuses = sorted(r.status for r in responses)
                assert statuses == ["ok", "rejected"]
                rejected = next(
                    r for r in responses if r.status == "rejected"
                )
                assert "client in-flight" in rejected.error["message"]
        finally:
            thread.stop()


class TestPoolConcurrency:
    def test_eight_workers_run_eight_jobs_at_once(self):
        """Every admitted leader waits on its job in a thread the
        server owns, so the pool's ``workers`` is the only bound on
        jobs running.  asyncio's default executor, with min(32,
        CPUs + 4) threads, would hold eight workers to six jobs on two
        CPUs."""
        workers = 8
        thread = start_in_thread(ServiceConfig(
            host="127.0.0.1", workers=workers, client_limit=workers,
        ))
        pool = thread.server.pool
        hang = {"kind": "hang", "attempts": 1}
        frames = [("bound", {"kernel": name, "_inject": hang})
                  for name in workload_names()[:workers]]
        replies = []
        try:
            with ServiceClient(thread.endpoints[0],
                               timeout=60.0) as active:
                sender = threading.Thread(
                    target=lambda: replies.extend(
                        active.request_many(frames)
                    )
                )
                sender.start()
                peak = 0
                deadline = time.monotonic() + 15.0
                while peak < workers and time.monotonic() < deadline:
                    peak = max(peak, pool._running)
                    time.sleep(0.01)
                # Kill the hung jobs: each request gets an error reply.
                pool.shutdown(kill=True)
                sender.join(timeout=30.0)
            assert not sender.is_alive()
            assert peak == workers
            assert [r.status for r in replies] == ["error"] * workers
        finally:
            thread.stop()


class TestDeadlines:
    def test_expired_deadline_is_a_typed_budget_error(self):
        thread = start_in_thread(
            ServiceConfig(host="127.0.0.1", workers=1,
                          job_timeout_s=2.0, retries=1)
        )
        try:
            with ServiceClient(thread.endpoints[0],
                               timeout=60.0) as active:
                response = active.request(
                    "bound",
                    {"kernel": "lfk1",
                     "_inject": {"kind": "hang", "attempts": 1}},
                    deadline_s=0.3,
                )
                assert response.status == "error"
                assert response.error["code"] == "budget"
                assert response.exit_code == 4
                assert "deadline" in response.error["message"]
        finally:
            thread.stop()


def _socket_fds(fds=None, attempt=1) -> list[int]:
    """The fds above 2 that are sockets in this process: all of them,
    or those among ``fds``.  A pool job as well as a helper."""
    if fds is None:
        fds = [int(name) for name in os.listdir("/dev/fd")]
    found = []
    for fd in fds:
        try:
            if fd > 2 and stat.S_ISSOCK(os.fstat(fd).st_mode):
                found.append(fd)
        except OSError:
            pass  # closed, such as the listing's own descriptor
    return found


class TestForkHygiene:
    def test_forked_child_closes_inherited_listen_sockets(self):
        """A pool worker holds none of the sockets of the process it
        was forked from: not the server's listeners (the port would
        stay bound after the server exits), not a connection (its
        peer's close would never reach the server as EOF), and not a
        socket no registry knows about."""
        thread = start_in_thread(
            ServiceConfig(host="127.0.0.1", workers=1)
        )
        left, right = socket.socketpair()
        try:
            with ServiceClient(thread.endpoints[0]) as active:
                assert active.ping()
                fds = _socket_fds()
                listeners = [sock.fileno()
                             for server in thread.server._servers
                             for sock in server.sockets]
                assert listeners
                assert set(listeners) <= set(fds)
                assert active._sock.fileno() in fds
                assert {left.fileno(), right.fileno()} <= set(fds)
                # The pool forks its worker for this first job.
                assert thread.server.pool.run(_socket_fds, fds) == []
            # The parent's listener still works after the fork.
            with ServiceClient(thread.endpoints[0]) as active:
                assert active.ping()
        finally:
            left.close()
            right.close()
            thread.stop()

    def test_sigterm_to_a_worker_leaves_the_replica_serving(
            self, tmp_path):
        """A worker forked from ``serve`` inherits the replica's signal
        wakeup; a SIGTERM sent to the worker must not drain the
        replica."""
        sock = str(tmp_path / "serve.sock")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", sock,
             "--workers", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            env=env, text=True,
        )
        try:
            assert "listening on" in process.stdout.readline()
            with ServiceClient(f"unix:{sock}", timeout=60.0) as active:
                cold = active.request("bound", {"kernel": "lfk1"})
                assert cold.ok and cold.origin == "computed"
                workers = _children(process.pid)
                assert len(workers) == 1
                os.kill(workers[0], signal.SIGTERM)
                # Room for a leaked wakeup to reach the replica's loop.
                time.sleep(0.5)
                assert active.healthz()["status"] == "ok"
                again = active.request("bound", {"kernel": "lfk2"})
                assert again.ok and again.origin == "computed"
                # The signal ended the worker; the pool started another.
                assert not _running(workers[0], sock)
                assert active.metrics()["worker_restarts"] >= 1
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
            process.stdout.close()


class TestDrain:
    def test_drain_request_stops_new_work(self):
        thread = start_in_thread(
            ServiceConfig(host="127.0.0.1", workers=1)
        )
        with ServiceClient(thread.endpoints[0]) as active:
            warm = active.request("bound", {"kernel": "lfk4"})
            assert warm.ok
            assert active.drain().ok
            # Cache hits still answer during the drain...
            cached = active.request("bound", {"kernel": "lfk4"})
            assert cached.ok and cached.origin == "cache"
            # ...but new computations are refused, typed unavailable.
            refused = active.request("bound", {"kernel": "lfk5"})
            assert refused.status == "rejected"
            assert refused.error["code"] == "unavailable"
            assert refused.exit_code == 6
        thread.thread.join(timeout=10.0)
        assert not thread.thread.is_alive()

    def test_stop_is_clean_and_removes_socket(self, tmp_path):
        sock = str(tmp_path / "drain.sock")
        thread = start_in_thread(
            ServiceConfig(socket_path=sock, workers=1)
        )
        assert os.path.exists(sock)
        thread.stop()
        assert not thread.thread.is_alive()
        assert not os.path.exists(sock)

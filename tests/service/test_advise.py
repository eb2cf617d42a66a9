"""The ``advise`` static tier, end to end over a real socket.

The serving claims under test:

* a cold ``advise`` is a worker-pool job like every other compute
  kind — it counts ``static_answers``, never ``computed``, and
  identical concurrent requests coalesce onto one job;
* so a worker that dies or hangs under an ``advise`` costs the
  serving process nothing: the pool retries it while the frontend
  keeps answering;
* repeated requests hit the result cache with byte-identical bodies;
* the offline client path renders the same bytes as the server;
* the sampling calibration loop replays requests exactly in the
  worker pool and records verdicts in the durable agreement ledger.
"""

import contextlib
import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.service import (
    DEFAULT_AGREEMENT_GATE,
    AgreementLedger,
    CalibrationSampler,
    ServiceConfig,
    ledger_summary,
    start_in_thread,
)
from repro.service.client import ServiceClient, offline_response


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    sock = str(tmp_path_factory.mktemp("advise") / "macs.sock")
    thread = start_in_thread(
        ServiceConfig(socket_path=sock, workers=1, client_limit=32)
    )
    yield thread
    thread.stop()


@pytest.fixture()
def client(server):
    with ServiceClient(server.endpoints[0]) as active:
        yield active


#: ``src/`` of the package under test, for ``serve`` subprocesses.
SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


@contextlib.contextmanager
def serve_subprocess(tmp_path, *flags):
    """A ``serve --socket`` process; yields (process, endpoint).

    The server and its workers share a new session, and the whole
    group is killed on the way out, so a wedged server fails the test
    instead of hanging it.
    """
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--socket", str(tmp_path / "advise.sock"), *flags],
        stdout=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        start_new_session=True,
    )
    try:
        line = proc.stdout.readline().strip()
        assert line.startswith("listening on "), line
        yield proc, line.split()[-1]
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait(timeout=30.0)
        proc.stdout.close()


class TestAdviseFastTier:
    def test_round_trip_has_the_full_static_answer(self, client):
        response = client.advise("lfk1")
        assert response.ok
        body = response.body
        assert body["tier"] == "exact"
        assert body["exact"] is True
        assert body["cycles_low"] <= body["cycles"]
        assert body["cycles"] <= body["cycles_high"]
        assert body["macs"]["ma_cpl"] <= body["macs"]["macs_cpl"]
        assert body["advice"]
        assert body["metrics"]["flops"] > 0

    def test_cold_advise_is_a_pool_job(self, server, client):
        before = client.metrics()
        jobs = server.server.pool.jobs_submitted
        for kernel in ("lfk2", "lfk4", "lfk9"):
            assert client.advise(kernel).ok
        after = client.metrics()
        assert after["computed"] == before["computed"]
        assert after["static_answers"] == before["static_answers"] + 3
        assert server.server.pool.jobs_submitted == jobs + 3

    def test_pipelined_duplicates_coalesce_onto_one_job(
            self, server, client):
        count = 8
        jobs = server.server.pool.jobs_submitted
        responses = client.request_many(
            [("advise", {"kernel": "lfk7"})] * count
        )
        assert all(response.ok for response in responses)
        origins = [response.origin for response in responses]
        assert origins.count("computed") == 1, origins
        assert origins.count("coalesced") == count - 1, origins
        bodies = {json.dumps(response.body, sort_keys=True)
                  for response in responses}
        assert len(bodies) == 1
        assert server.server.pool.jobs_submitted == jobs + 1

    def test_repeat_hits_the_result_cache(self, client):
        first = client.advise("lfk10")
        second = client.advise("lfk10")
        assert first.origin in ("computed", "cache")
        assert second.origin == "cache"
        assert second.body == first.body

    def test_offline_render_matches_server_render(self, client):
        params = {"kernel": "lfk3"}
        served = client.request("advise", params)
        offline = offline_response("advise", params)
        assert served.ok and offline.ok
        assert offline.render() == served.render()
        assert offline.key == served.key

    def test_unknown_kernel_is_a_typed_usage_error(self, client):
        # Kernel names are validated at canonicalization, before any
        # tier runs — same typed error as every other request kind.
        response = client.request("advise", {"kernel": "nope"})
        assert response.status == "error"
        assert response.error["code"] == "usage"
        assert response.exit_code == 2
        assert "unknown workload" in response.error["message"]

    def test_scalar_kernel_is_served(self, client):
        response = client.advise("lfk5")
        assert response.ok
        assert response.body["macs"] is None
        assert response.body["tier"] == "exact"

    def test_shorthand_params_reach_the_static_tier(self, client):
        base = client.advise("lfk1")
        sized = client.advise("lfk1", n=64)
        assert sized.ok
        assert sized.body["cycles"] != base.body["cycles"]


class TestAdviseWorkerFaults:
    """Run against a ``serve`` subprocess: a fault that reached the
    serving process itself would take an in-process server's pytest
    down with it."""

    def test_worker_exit_is_retried_and_the_server_lives(
            self, tmp_path):
        with serve_subprocess(tmp_path) as (proc, endpoint):
            with ServiceClient(endpoint, timeout=60.0) as client:
                response = client.request(
                    "advise",
                    {"kernel": "lfk1",
                     "_inject": {"kind": "exit", "attempts": 1}},
                )
                assert response.ok, response.error
                assert response.body["tier"] == "exact"
                assert client.metrics()["static_answers"] == 1
            assert proc.poll() is None

    def test_ping_answers_while_an_advise_hangs(self, tmp_path):
        with serve_subprocess(tmp_path, "--job-timeout", "2") as (
                _proc, endpoint):
            hung = {}

            def send_hanging_advise():
                with ServiceClient(endpoint, timeout=60.0) as slow:
                    hung["response"] = slow.request(
                        "advise",
                        {"kernel": "lfk1",
                         "_inject": {"kind": "hang", "attempts": 1}},
                    )

            thread = threading.Thread(target=send_hanging_advise)
            thread.start()
            time.sleep(0.3)  # the advise is dispatched by now
            with ServiceClient(endpoint, timeout=1.0) as client:
                t0 = time.monotonic()
                assert client.ping()
                assert time.monotonic() - t0 < 1.0
            # --job-timeout kills the hung attempt; the retry answers.
            thread.join(timeout=60.0)
            assert not thread.is_alive()
            assert hung["response"].ok, hung["response"].error


class TestCalibrationLoop:
    def test_sampled_requests_land_in_the_ledger(self, tmp_path):
        sock = str(tmp_path / "cal.sock")
        ledger_path = str(tmp_path / "agreement.jsonl")
        thread = start_in_thread(
            ServiceConfig(
                socket_path=sock, workers=1,
                calibrate_every=1, ledger_path=ledger_path,
            )
        )
        try:
            with ServiceClient(thread.endpoints[0]) as client:
                assert client.advise("lfk1").ok
                deadline = time.time() + 60
                while time.time() < deadline:
                    snapshot = client.metrics()
                    if snapshot["calibrations"] >= 1:
                        break
                    time.sleep(0.1)
                else:
                    pytest.fail("calibration replay never completed")
                assert snapshot["calibration_flags"] == 0
                health = client.healthz()
                assert health["static_flagged"] is False
                assert health["static_widened_gates"] == 0
        finally:
            thread.stop()
        records = AgreementLedger(ledger_path).load()
        assert len(records) >= 1
        record = records[0]
        assert record["kernel"] == "lfk1"
        assert record["tier"] == "exact"
        assert record["rel_error"] == 0.0
        assert record["within_gate"] is True
        assert record["counters_match"] is True
        assert record["action"] == "ok"
        summary = ledger_summary(records)
        assert summary["breaches"] == 0
        assert summary["max_rel_error"] == 0.0


class TestSamplerPolicy:
    def test_every_n_sampling(self):
        sampler = CalibrationSampler(every=3)
        picks = [sampler.should_sample() for _ in range(9)]
        assert picks == [False, False, True] * 3

    def test_disabled_sampler_never_samples(self):
        sampler = CalibrationSampler(every=0)
        assert not any(sampler.should_sample() for _ in range(10))

    def test_exact_tier_delta_is_flagged(self):
        sampler = CalibrationSampler(every=1)
        verdict = sampler.judge(
            "lfk1", "k",
            {"tier": "exact", "cycles": 101.0,
             "metrics": {"flops": 10}},
            {"cycles": 100.0, "flops": 10},
        )
        assert verdict.action == "flagged"
        assert not verdict.within_gate
        assert sampler.flagged

    def test_model_tier_breach_widens_the_gate(self):
        sampler = CalibrationSampler(every=1)
        verdict = sampler.judge(
            "lfk1", "k",
            {"tier": "model", "cycles": 110.0,
             "metrics": {"flops": 10}},
            {"cycles": 100.0, "flops": 10},
        )
        assert verdict.action == "widened"
        assert sampler.widened_gates["lfk1"] == pytest.approx(
            0.1 * 1.25
        )
        assert not sampler.flagged
        # The widened gate now admits the same drift.
        second = sampler.judge(
            "lfk1", "k",
            {"tier": "model", "cycles": 110.0,
             "metrics": {"flops": 10}},
            {"cycles": 100.0, "flops": 10},
        )
        assert second.action == "ok"
        assert second.within_gate

    def test_agreement_within_gate_is_ok(self):
        sampler = CalibrationSampler(every=1)
        verdict = sampler.judge(
            "lfk1", "k",
            {"tier": "model",
             "cycles": 100.0 * (1 + DEFAULT_AGREEMENT_GATE / 2),
             "metrics": {"flops": 10}},
            {"cycles": 100.0, "flops": 10},
        )
        assert verdict.action == "ok"
        assert verdict.within_gate

    def test_counter_mismatch_is_reported(self):
        sampler = CalibrationSampler(every=1)
        verdict = sampler.judge(
            "lfk1", "k",
            {"tier": "model", "cycles": 100.0,
             "metrics": {"flops": 11}},
            {"cycles": 100.0, "flops": 10},
        )
        assert not verdict.counters_match
        assert "flops" in verdict.mismatched_counters

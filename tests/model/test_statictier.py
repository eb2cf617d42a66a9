"""The static serving tier: memoization, payloads, cache hygiene."""

import pytest

from repro.machine import DEFAULT_CONFIG, Simulator
from repro.model import predict_kernel, statictier
from repro.service.jobs import execute_request
from repro.workloads import clear_caches, runner


def static_cache_size() -> int:
    return len(statictier._STATIC_MEMO)


@pytest.fixture(autouse=True)
def fresh_memo():
    statictier._STATIC_MEMO.clear()
    yield
    statictier._STATIC_MEMO.clear()


class TestMemoization:
    def test_repeat_is_a_cache_hit(self):
        first = predict_kernel("lfk1")
        assert static_cache_size() == 1
        second = predict_kernel("lfk1")
        assert second is first

    def test_distinct_configs_are_distinct_entries(self):
        predict_kernel("lfk1")
        predict_kernel("lfk1", config=DEFAULT_CONFIG.without_refresh())
        assert static_cache_size() == 2

    def test_clear_caches_resets_the_memo(self):
        predict_kernel("lfk1")
        assert static_cache_size() == 1
        clear_caches()
        assert static_cache_size() == 0

    def test_number_and_name_resolve_alike(self):
        by_number = predict_kernel(1)
        by_name = predict_kernel("lfk1")
        assert by_number is by_name

    def test_advise_and_run_share_one_simulation(self, monkeypatch):
        runs = []
        simulate = Simulator.run

        def counted(sim, *args, **kwargs):
            runs.append(sim.program.name)
            return simulate(sim, *args, **kwargs)

        monkeypatch.setattr(Simulator, "run", counted)
        clear_caches()
        payload = {"kernel": "lfk7", "options": {}, "n": 500}
        advised = execute_request({"kind": "advise", **payload})
        assert runs == ["lfk7"]
        before = runner._RUN_MEMO.stats()
        replayed = execute_request({"kind": "run", **payload})
        after = runner._RUN_MEMO.stats()
        assert runs == ["lfk7"], "the run must reuse the advise's run"
        assert after["hits"] == before["hits"] + 1
        assert advised["status"] == replayed["status"] == "ok"
        assert advised["body"]["cycles"] == \
            replayed["body"]["metrics"]["cycles"]


class TestPayload:
    def test_vector_kernel_payload_schema(self):
        payload = predict_kernel("lfk3").to_payload()
        assert payload["kernel"] == "lfk3"
        assert payload["tier"] == "exact"
        assert payload["exact"] is True
        assert payload["cycles_low"] <= payload["cycles"]
        assert payload["cycles"] <= payload["cycles_high"]
        assert payload["cpl_low"] <= payload["cpl"] <= payload["cpl_high"]
        macs = payload["macs"]
        assert macs["ma_cpl"] <= macs["mac_cpl"] <= macs["macs_cpl"]
        assert macs["t_p_cpl"] == pytest.approx(payload["cpl"])
        assert payload["advice"], "vector kernels get ranked advice"
        assert "MACS hierarchy" in payload["report"]

    def test_scalar_kernel_payload_has_no_macs(self):
        payload = predict_kernel("lfk5").to_payload()
        assert payload["macs"] is None
        assert payload["advice"] == []
        assert "scalar kernel" in payload["report"]
        assert payload["tier"] == "exact"

    def test_metrics_match_the_run_schema(self):
        metrics = predict_kernel("lfk1").metrics()
        for name in (
            "cycles", "instructions", "vector_instructions",
            "scalar_instructions", "vector_memory_ops",
            "scalar_memory_ops", "flops", "cpl", "cpf",
            "cycles_per_vector_iteration", "mflops",
        ):
            assert name in metrics
        assert metrics["mflops"] > 0

    def test_problem_size_changes_the_answer(self):
        base = predict_kernel("lfk1")
        sized = predict_kernel("lfk1", n=64)
        assert sized.cycles != base.cycles

"""Cache-key scoping: different machines can never share a cache slot.

Machine identity enters every tier as the *content digest* of the
resolved config — sweep-task keys, service request keys, the run
memo, the service L1 memo, and the fleet's shared L2.  These
tests pin the regression the digest exists to prevent: two different
machine descriptions colliding on one cached result.
"""

import itertools

import pytest

from repro.machines import builtin_machine, builtin_names
from repro.service import AnalysisServer, ServiceConfig
from repro.service.protocol import canonicalize
from repro.sweep.spec import SweepTask


def pairs():
    return list(itertools.combinations(builtin_names(), 2))


class TestSweepTaskKeys:
    @pytest.mark.parametrize("left, right", pairs())
    def test_distinct_machines_distinct_task_keys(self, left, right):
        task_a = SweepTask(
            workload="lfk1", config=builtin_machine(left).config
        )
        task_b = SweepTask(
            workload="lfk1", config=builtin_machine(right).config
        )
        assert task_a.key != task_b.key

    def test_every_config_field_moves_the_key(self):
        # the full config is digested, so any parameter change — even
        # one the simulator ignores today — scopes the key
        base = builtin_machine("c240").config
        variant = base.replace(cpus=base.cpus + 1)
        assert SweepTask(workload="lfk1", config=base).key \
            != SweepTask(workload="lfk1", config=variant).key


class TestServiceKeys:
    @pytest.mark.parametrize("kind", ["run", "bound", "mac", "ax",
                                      "analyze", "advise", "sweep"])
    @pytest.mark.parametrize("left, right", pairs())
    def test_distinct_machines_distinct_request_keys(
        self, kind, left, right
    ):
        params = {} if kind == "sweep" else {"kernel": "lfk1"}
        key_a = canonicalize(kind, {**params, "machine": left}).key
        key_b = canonicalize(kind, {**params, "machine": right}).key
        assert key_a != key_b

    def test_machine_digest_joins_the_payload(self):
        request = canonicalize(
            "advise", {"kernel": "lfk1", "machine": "c210"}
        )
        assert request.payload["machine"] == "c210"
        assert request.payload["machine_digest"] == \
            builtin_machine("c210").digest


class TestResultCacheScoping:
    def test_l1_cache_never_serves_across_machines(self):
        cache = AnalysisServer(
            ServiceConfig(socket_path="unused.sock", cache_max=8)
        ).cache
        key_a = canonicalize(
            "run", {"kernel": "lfk1", "machine": "c240"}
        ).key
        key_b = canonicalize(
            "run", {"kernel": "lfk1", "machine": "cray-nochain"}
        ).key
        cache.put(key_a, {"cycles": 1.0})
        assert cache.get(key_b) is None
        assert cache.get(key_a) == {"cycles": 1.0}

    def test_fleet_l2_never_serves_across_machines(self, tmp_path):
        from repro.fleet.store import SharedL2Store

        store = SharedL2Store(str(tmp_path))
        key_a = canonicalize(
            "bound", {"kernel": "lfk3", "machine": "c210"}
        ).key
        key_b = canonicalize(
            "bound", {"kernel": "lfk3", "machine": "c3800like"}
        ).key
        store.put(key_a, "bound", {"cpl": 2.0})
        assert store.get(key_b) is None
        assert store.get(key_a) == {"cpl": 2.0}


class TestRunCacheScoping:
    def test_run_cache_keys_on_the_config(self):
        from repro.workloads import run_kernel

        run_a = run_kernel(
            "lfk3", config=builtin_machine("c240").config
        )
        run_b = run_kernel(
            "lfk3", config=builtin_machine("cray-nochain").config
        )
        # different machines, independently simulated results
        assert run_a is not run_b
        assert run_a.result.cycles != run_b.result.cycles

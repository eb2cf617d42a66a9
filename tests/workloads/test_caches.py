"""Cache lifecycle regressions.

``compile_spec`` and ``run_kernel`` memoize by content.
``clear_caches()`` must wipe every process-wide memo *and* the sweep
telemetry collector, and forked sweep workers must start cold — a
child inheriting the parent's run cache would report ``cached``
statuses for cells it never simulated, and an inherited telemetry
collector would write to the parent's trace file descriptor.
"""

import dataclasses
import os

from repro.machine import DEFAULT_CONFIG, semantics
from repro.sweep import telemetry
from repro.workloads import (
    clear_caches,
    compile_spec,
    kernel,
    run_kernel,
    workload,
)
from repro.workloads import runner


def warm_caches():
    run_kernel(workload("lfk12"))
    assert len(runner._COMPILE_MEMO) and len(runner._RUN_MEMO)


class TestRunnerCaches:
    def setup_method(self):
        clear_caches()

    def teardown_method(self):
        clear_caches()

    def test_compile_spec_memoized(self):
        spec = kernel("lfk1")
        assert compile_spec(spec) is compile_spec(spec)

    def test_compile_cache_distinguishes_specs(self):
        assert compile_spec(kernel("lfk1")) is not compile_spec(
            kernel("lfk2")
        )

    def test_run_kernel_memoized(self):
        spec = kernel("lfk1")
        assert run_kernel(spec) is run_kernel(spec)

    def test_run_cache_distinguishes_configs(self):
        spec = kernel("lfk1")
        base = run_kernel(spec)
        assert run_kernel(spec, config=DEFAULT_CONFIG.without_refresh()) \
            is not base

    def test_cached_run_matches_fresh_run(self):
        spec = kernel("lfk3")
        cached = run_kernel(spec)
        clear_caches()
        fresh = run_kernel(spec)
        assert cached is not fresh
        assert cached.result.cycles == fresh.result.cycles

    def test_clear_caches_resets(self):
        spec = kernel("lfk1")
        first = run_kernel(spec)
        clear_caches()
        assert run_kernel(spec) is not first

    def test_explicit_compiled_bypasses_run_cache(self):
        spec = kernel("lfk1")
        compiled = compile_spec(spec)
        first = run_kernel(spec, compiled=compiled)
        second = run_kernel(spec, compiled=compiled)
        assert first is not second

    def test_verify_upgrades_cached_entry(self):
        spec = kernel("lfk1")
        run_kernel(spec, verify=False)
        # the cached run is re-verified on demand, not re-simulated
        assert run_kernel(spec, verify=True) is run_kernel(spec)

    def test_clear_caches_resets_analysis_memo(self):
        from repro import analysis

        program = compile_spec(kernel("lfk1")).program
        first = analysis.analyze_program(program)
        assert len(analysis._ANALYSIS_MEMO) >= 1
        assert analysis.analyze_program(program) is first
        clear_caches()
        assert len(analysis._ANALYSIS_MEMO) == 0
        assert analysis.analyze_program(program) is not first

    def test_sized_variants_not_conflated(self):
        base = kernel("lfk1")
        small = dataclasses.replace(
            base,
            scalar_inputs={**base.scalar_inputs, "n": 64},
            inner_iterations=64,
            trip_profile=(64,),
        )
        assert run_kernel(base).result.cycles \
            != run_kernel(small).result.cycles


class TestClearCaches:
    def test_clears_compile_and_run_caches(self):
        warm_caches()
        clear_caches()
        assert len(runner._COMPILE_MEMO) == 0
        assert len(runner._RUN_MEMO) == 0

    def test_clears_the_decode_memo(self):
        first = run_kernel(workload("lfk12")).result.cycles
        assert len(semantics._DECODE_MEMO)
        clear_caches()
        assert len(semantics._DECODE_MEMO) == 0
        assert run_kernel(workload("lfk12")).result.cycles == first

    def test_deactivates_leftover_telemetry_collector(self):
        collector = telemetry.Telemetry()
        telemetry.activate(collector)
        assert telemetry.current() is collector
        clear_caches()
        assert telemetry.current() is None

    def test_clears_the_service_result_cache_too(self):
        from repro.service import AnalysisServer, ServiceConfig

        server = AnalysisServer(ServiceConfig(socket_path="unused.sock",
                                              cache_max=4))
        server.cache.put("key", {"v": 1})
        warm_caches()
        clear_caches()
        assert len(server.cache) == 0
        assert len(runner._COMPILE_MEMO) == 0

    def test_reset_does_not_close_inherited_trace_handle(self, tmp_path):
        # reset() must detach the durable log's handle without closing
        # it: after a fork the child shares the parent's file
        # descriptor, and closing it would corrupt the parent's trace.
        trace = tmp_path / "trace.jsonl"
        collector = telemetry.Telemetry(trace_path=str(trace))
        telemetry.activate(collector)
        collector.emit("probe")  # the append handle opens lazily
        handle = collector._trace_log._handle
        assert handle is not None
        clear_caches()
        assert collector._trace_log is None
        assert not handle.closed
        handle.close()


class TestForkIsolation:
    def test_forked_child_starts_with_cold_caches(self):
        warm_caches()
        pid = os.fork()
        if pid == 0:
            # Child: the at-fork hook must have cleared everything the
            # parent warmed.  Exit codes communicate the verdict.
            status = (
                0
                if len(runner._COMPILE_MEMO) == 0
                and len(runner._RUN_MEMO) == 0
                and telemetry.current() is None
                else 1
            )
            os._exit(status)
        _, wait_status = os.waitpid(pid, 0)
        assert os.WIFEXITED(wait_status)
        assert os.WEXITSTATUS(wait_status) == 0
        # ... and the parent's caches are untouched by the fork.
        assert len(runner._COMPILE_MEMO) and len(runner._RUN_MEMO)

    def test_forked_child_inherits_no_active_collector(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        collector = telemetry.Telemetry(trace_path=str(trace))
        telemetry.activate(collector)
        try:
            pid = os.fork()
            if pid == 0:
                os._exit(0 if telemetry.current() is None else 1)
            _, wait_status = os.waitpid(pid, 0)
            assert os.WEXITSTATUS(wait_status) == 0
            # The parent's collector survives the fork and can still
            # write to its trace handle.
            assert telemetry.current() is collector
            collector.emit("probe")
        finally:
            telemetry.deactivate()
        assert "probe" in trace.read_text()

"""Command-line interface tests."""

import json

import pytest

from repro.cli import main
from repro.sweep import reset_sweep_defaults


@pytest.fixture(autouse=True)
def _isolate_sweep_defaults():
    """CLI --jobs/--trace install process-wide defaults; undo them."""
    yield
    reset_sweep_defaults()


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table4" in out
        assert "lfk1" in out

    def test_analyze(self, capsys):
        assert main(["analyze", "lfk1"]) == 0
        out = capsys.readouterr().out
        assert "MACS hierarchy for LFK1" in out

    def test_compile(self, capsys):
        assert main(["compile", "lfk12"]) == 0
        out = capsys.readouterr().out
        assert "ld.l" in out and "vectorized" in out

    def test_run(self, capsys):
        assert main(["run", "lfk12"]) == 0
        out = capsys.readouterr().out
        assert "CPF" in out
        assert "verified" in out

    def test_run_no_verify(self, capsys):
        assert main(["run", "lfk12", "--no-verify"]) == 0
        assert "verified" not in capsys.readouterr().out

    def test_experiment_figure1(self, capsys):
        assert main(["experiment", "figure1"]) == 0
        out = capsys.readouterr().out
        assert "t_MACS" in out

    def test_unknown_experiment(self, capsys):
        assert main(["experiment", "bogus"]) == 2

    def test_unknown_kernel_reports_error(self, capsys):
        assert main(["run", "lfk5"]) == 3
        assert "error" in capsys.readouterr().err

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestErrorPaths:
    def test_unknown_workload_name(self, capsys):
        assert main(["run", "nosuchkernel"]) == 3
        err = capsys.readouterr().err
        assert "error" in err and "nosuchkernel" in err

    def test_sweep_unknown_workload_name(self, capsys):
        assert main(["sweep", "nosuchkernel"]) == 3
        err = capsys.readouterr().err
        assert "nosuchkernel" in err

    def test_sweep_malformed_options_no_value(self, capsys):
        assert main(["sweep", "lfk1", "--options", "ivdep"]) == 2
        assert "key=value" in capsys.readouterr().err

    def test_sweep_malformed_options_unknown_key(self, capsys):
        assert main(["sweep", "lfk1", "--options", "bogus=1"]) == 2
        assert "unknown compiler option" in capsys.readouterr().err

    def test_sweep_malformed_options_bad_bool(self, capsys):
        assert main(
            ["sweep", "lfk1", "--options", "ivdep=maybe"]
        ) == 2
        assert "boolean" in capsys.readouterr().err

    def test_sweep_malformed_options_bad_int(self, capsys):
        assert main(
            ["sweep", "lfk1", "--options", "vector_length=wide"]
        ) == 2
        assert "integer" in capsys.readouterr().err

    def test_sweep_malformed_options_bad_enum(self, capsys):
        assert main(
            ["sweep", "lfk1", "--options", "reduction_style=zigzag"]
        ) == 2
        assert "partial-sums" in capsys.readouterr().err

    def test_sweep_options_conflicts_with_variants(self, capsys):
        assert main(
            ["sweep", "lfk1", "--variants", "reuse",
             "--options", "ivdep=true"]
        ) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_sweep_unknown_variant(self, capsys):
        assert main(["sweep", "lfk1", "--variants", "bogus"]) == 2
        assert "unknown option variant" in capsys.readouterr().err

    def test_experiment_bad_jobs_value(self, capsys):
        assert main(["experiment", "figure1", "--jobs", "0"]) == 5
        assert "jobs" in capsys.readouterr().err


class TestSweepCommand:
    def test_sweep_small_grid(self, capsys, tmp_path):
        out = tmp_path / "results.jsonl"
        assert main(
            ["sweep", "lfk1", "lfk12", "--variants", "default",
             "--out", str(out)]
        ) == 0
        captured = capsys.readouterr()
        assert "lfk1/default/base" in captured.out
        assert "tasks ok" in captured.err  # summary goes to stderr
        lines = [
            json.loads(line)
            for line in out.read_text().splitlines()
        ]
        assert [d["workload"] for d in lines] == ["lfk1", "lfk12"]
        assert all(d["status"] == "ok" for d in lines)

    def test_sweep_jobs_match_sequential(self, capsys, tmp_path):
        seq = tmp_path / "seq.jsonl"
        par = tmp_path / "par.jsonl"
        grid = ["lfk1", "lfk12", "--variants", "default,reuse"]
        assert main(["sweep", *grid, "--out", str(seq)]) == 0
        assert main(
            ["sweep", *grid, "--jobs", "2", "--out", str(par)]
        ) == 0
        assert seq.read_bytes() == par.read_bytes()

    def test_sweep_trace_feeds_summary(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert main(
            ["sweep", "lfk12", "--variants", "default",
             "--trace", str(trace)]
        ) == 0
        events = [
            json.loads(line)
            for line in trace.read_text().splitlines()
        ]
        assert events[0]["event"] == "sweep_start"
        assert events[-1]["event"] == "sweep_end"
        assert "wall time" in capsys.readouterr().err

    def test_sweep_custom_options(self, capsys):
        assert main(
            ["sweep", "lfk1",
             "--options", "reuse_shifted_loads=true,vector_length=64"]
        ) == 0
        assert "lfk1/custom/base" in capsys.readouterr().out

    def test_sweep_deterministic_compile_errors_exit_zero(
        self, capsys
    ):
        # lfk4 cannot compile with two scalar registers; the cell is
        # reported as an error result, not an infrastructure failure
        assert main(
            ["sweep", "lfk4", "--variants", "tight-sregs"]
        ) == 0
        assert "error" in capsys.readouterr().out

    def test_experiment_with_jobs_flag(self, capsys):
        assert main(
            ["experiment", "ablation-refresh", "--jobs", "2"]
        ) == 0
        assert "t_p" in capsys.readouterr().out


class TestLintCommand:
    def test_lint_kernel_is_clean(self, capsys):
        assert main(["lint", "lfk1"]) == 0
        out = capsys.readouterr().out
        assert "lfk1: 0 error(s)" in out

    def test_lint_all_workloads_clean(self, capsys):
        assert main(["lint", "all"]) == 0
        out = capsys.readouterr().out
        assert "sdot_long: 0 error(s)" in out

    def test_lint_resolves_excluded_kernels(self, capsys):
        assert main(["lint", "lfk5"]) == 0

    def test_lint_json_output(self, capsys):
        assert main(["lint", "lfk2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["kernel"] == "lfk2"
        assert payload[0]["errors"] == 0
        for finding in payload[0]["findings"]:
            assert finding["severity"] in ("info", "warning", "error")

    def test_lint_min_severity_filters(self, capsys):
        # lfk2 carries INFO findings (the ivdep override pattern)
        assert main(["lint", "lfk2"]) == 0
        assert "[mem-overlap]" in capsys.readouterr().out
        assert main(["lint", "lfk2", "--min-severity", "warning"]) == 0
        assert "[mem-overlap]" not in capsys.readouterr().out

    def test_lint_bad_severity_rejected(self, capsys):
        assert main(["lint", "lfk1", "--min-severity", "bogus"]) == 2
        assert "unknown severity" in capsys.readouterr().err

    def test_lint_unknown_workload(self, capsys):
        assert main(["lint", "nope"]) == 3
        assert "error" in capsys.readouterr().err

    def test_compile_strict_passes_clean_kernel(self, capsys):
        assert main(["compile", "lfk3", "--strict"]) == 0
        assert "ld.l" in capsys.readouterr().out

    def test_run_lint_gate_passes(self, capsys):
        assert main(["run", "lfk1", "--lint", "--no-verify"]) == 0
        assert "CPF" in capsys.readouterr().out

    def test_experiment_static_summary(self, capsys):
        assert main(["experiment", "static-summary"]) == 0
        out = capsys.readouterr().out
        assert "yes" in out and "DIVERGE" not in out


class TestRequestCommand:
    def test_offline_bound_request(self, capsys):
        assert main(
            ["request", "bound", "--kernel", "lfk1", "--offline"]
        ) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert payload["kernel"] == "lfk1"
        assert payload["metrics"]["cpl"] > 0

    def test_offline_json_envelope(self, capsys):
        assert main(
            ["request", "bound", "--kernel", "lfk1", "--offline",
             "--json"]
        ) == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["status"] == "ok"
        assert envelope["origin"] == "offline"
        assert envelope["key"].startswith("lfk1:bound:")

    def test_offline_analyze_matches_analyze_command(self, capsys):
        assert main(["analyze", "lfk1"]) == 0
        direct = capsys.readouterr().out
        assert main(
            ["request", "analyze", "--kernel", "lfk1", "--offline"]
        ) == 0
        served = capsys.readouterr().out
        assert served == direct

    def test_params_json_merges_with_shorthand(self, capsys):
        assert main(
            ["request", "lint", "--offline",
             "--params", '{"min_severity": "error"}',
             "--kernel", "lfk1"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] == 0

    def test_unknown_kind_is_usage_error(self, capsys):
        assert main(
            ["request", "bogus", "--kernel", "lfk1", "--offline"]
        ) == 2
        assert "unknown request kind" in capsys.readouterr().err

    def test_unknown_kernel_is_usage_error(self, capsys):
        assert main(
            ["request", "bound", "--kernel", "nope", "--offline"]
        ) == 2

    def test_bad_params_json_is_usage_error(self, capsys):
        assert main(
            ["request", "bound", "--params", "{nope", "--offline"]
        ) == 2
        assert "valid JSON" in capsys.readouterr().err

    def test_missing_endpoint_is_usage_error(self, capsys):
        assert main(["request", "bound", "--kernel", "lfk1"]) == 2
        assert "--endpoint" in capsys.readouterr().err

    def test_unreachable_server_exits_6(self, capsys, tmp_path):
        assert main(
            ["request", "bound", "--kernel", "lfk1",
             "--endpoint", f"unix:{tmp_path}/absent.sock"]
        ) == 6
        assert "cannot connect" in capsys.readouterr().err

    def test_server_round_trip_matches_offline(self, capsys, tmp_path):
        from repro.service import ServiceConfig, start_in_thread

        thread = start_in_thread(
            ServiceConfig(socket_path=str(tmp_path / "cli.sock"),
                          workers=1)
        )
        try:
            endpoint = thread.endpoints[0]
            assert main(
                ["request", "mac", "--kernel", "lfk2",
                 "--endpoint", endpoint]
            ) == 0
            served = capsys.readouterr().out
            assert main(
                ["request", "mac", "--kernel", "lfk2", "--offline"]
            ) == 0
            offline = capsys.readouterr().out
            assert served == offline
        finally:
            thread.stop()


class TestFleetCommand:
    def test_record_then_replay_byte_identical(self, capsys,
                                               tmp_path):
        burst = str(tmp_path / "burst.ndjson")
        assert main(
            ["fleet", "record", "--out", burst,
             "--frames", "12", "--seed", "42"]
        ) == 0
        assert "recorded 12 frames" in capsys.readouterr().out
        bodies = str(tmp_path / "bodies.txt")
        assert main(
            ["fleet", "replay", "--burst", burst,
             "--replicas", "2", "--jobs", "2",
             "--out", bodies]
        ) == 0
        out = capsys.readouterr().out
        assert "replayed 12 frames on 2 replica(s)" in out
        assert "byte-identity: OK" in out
        with open(bodies, encoding="utf-8") as handle:
            assert len(handle.read().splitlines()) == 12

    def test_replay_generates_when_no_burst_given(self, capsys):
        assert main(
            ["fleet", "replay", "--replicas", "1",
             "--frames", "6", "--seed", "7", "--no-verify"]
        ) == 0
        out = capsys.readouterr().out
        assert "replayed 6 frames on 1 replica(s)" in out
        assert "byte-identity" not in out

    def test_replay_rejects_missing_burst_file(self, capsys,
                                               tmp_path):
        assert main(
            ["fleet", "replay",
             "--burst", str(tmp_path / "nope.ndjson")]
        ) != 0

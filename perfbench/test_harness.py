"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import pytest

import common
import hostspeed
import longvec
import regen
import run
import servezipf
import tracer

sys.path.insert(0, str(common.SRC))


def _span(span_id, parent, name, t0, t1, tags=None):
    return (1, [span_id, parent, name, t0, t1, tags])


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(1, 0, "machine.simulate", 0.0, 10.0),
        _span(2, 1, "machine.decode", 1.0, 4.0),
        _span(3, 1, "machine.decode", 3.0, 6.0),  # overlaps span 2
        _span(4, 2, "lang.parse", 2.0, 3.0),
    ]
    selfs = tracer.self_times(spans)
    assert selfs[(1, 1)] == pytest.approx(5.0)   # 10 - |[1, 6]|
    assert selfs[(1, 2)] == pytest.approx(2.0)   # 3 - 1
    assert selfs[(1, 3)] == pytest.approx(3.0)
    assert selfs[(1, 4)] == pytest.approx(1.0)
    metrics = tracer.layer_metrics(spans, passes=2)
    assert metrics["machine.simulate_s"] == pytest.approx(2.5)
    assert metrics["machine.decode_s"] == pytest.approx(2.5)
    assert metrics["lang.parse_s"] == pytest.approx(0.5)


def test_spans_of_another_process_are_not_children():
    spans = [_span(1, 0, "machine.simulate", 0.0, 4.0),
             (2, [1, 0, "machine.decode", 0.0, 4.0, None])]
    assert tracer.self_times(spans)[(1, 1)] == pytest.approx(4.0)


def test_hit_ratio_counts_calls_that_never_reach_the_inner_layer():
    spans = [
        _span(1, 0, "workloads.compile_spec", 0.0, 3.0),
        _span(2, 1, "lang.parse", 0.5, 1.0),
        _span(3, 2, "compiler.compile", 0.6, 0.9),  # a descendant
        _span(4, 0, "workloads.compile_spec", 4.0, 4.1),
        _span(5, 0, "workloads.compile_spec", 5.0, 5.1),
    ]
    metrics = tracer.layer_metrics(spans, passes=1)
    assert metrics["workloads.compile_hit_ratio"] == pytest.approx(2 / 3)


def test_wrappers_record_parent_links_and_flush_at_root(tmp_path):
    recorder = tracer.Tracer(tmp_path)

    def leaf():
        return "leaf"

    inner = recorder.wrap("lang.parse", leaf)
    outer = recorder.wrap("compiler.compile", lambda: inner())
    assert outer() == "leaf"
    spans = tracer.read_spans(tmp_path)  # written when the root closed
    by_name = {record[2]: record for _pid, record in spans}
    assert by_name["lang.parse"][1] == by_name["compiler.compile"][0]
    assert by_name["compiler.compile"][1] == 0
    # a second tracer in the same process appends to the same file
    tracer.Tracer(tmp_path).wrap("lang.parse", leaf)()
    ids = [record[0] for _pid, record in tracer.read_spans(tmp_path)]
    assert len(ids) == 3 == len(set(ids))


def test_host_factor_follows_the_speed_during_the_interval():
    fast, slow = hostspeed.REFERENCE_S, 2 * hostspeed.REFERENCE_S
    samples = [(float(t), fast if t < 20 else slow) for t in range(40)]
    assert hostspeed.factors(samples, [(0.0, 15.0), (25.0, 39.0)]) == (
        pytest.approx([1.0, 0.5]))
    # half the interval at each speed: the mean duration, not a median
    [half] = hostspeed.factors(samples, [(10.0, 30.0)])
    assert half == pytest.approx(1 / 1.5)


def test_a_short_interval_widens_to_ten_samples_and_trims():
    samples = [(float(t), hostspeed.REFERENCE_S * (1 + t)) for t in range(30)]
    # no sample starts inside: widened to starts 6..15, then the slowest
    # and the fastest are left out, so durations 8..15 remain
    [factor] = hostspeed.factors(samples, [(10.2, 10.3)])
    assert factor == pytest.approx(1 / 11.5)
    assert hostspeed.trimmed_mean([1.0] * 8 + [100.0, 0.0]) == 1.0
    with pytest.raises(RuntimeError):
        hostspeed.factors([], [(0.0, 1.0)])


def test_the_sampler_records_until_stopped(tmp_path):
    with hostspeed.Sampler(tmp_path) as speed:
        deadline = time.monotonic() + 30
        while len(speed.samples()) < 3 and time.monotonic() < deadline:
            time.sleep(0.05)
    assert speed.proc.returncode == 0
    samples = speed.samples()
    assert len(samples) >= 3
    assert all(duration > 0 for _start, duration in samples)
    [factor] = speed.factors([(samples[0][0], samples[-1][0])])
    assert factor > 0


@pytest.mark.parametrize("count, expected", [
    (1000, 99), (999, 95), (200, 95), (199, 90), (100, 90),
    (99, 75), (40, 75), (39, 50), (20, 50), (19, None),
])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(
        count, expected):
    assert common.tail_percentile(count) == expected


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert common.percentile(values, 99) == 99
    assert common.percentile(values, 50) == 50
    assert common.percentile([7.0], 99) == 7.0


def test_perturbed_cycle_count_fails_the_longvec_check():
    key, loop, data, config, options = longvec._inputs(seed=5)[0]
    compiled, sim, result = longvec._run_one(loop, data, config, options)
    expected = common.load_expected()["longvec"]
    assert longvec.check(key, loop, data, compiled, sim, result,
                         expected) is None
    perturbed = {**expected, key: [expected[key][0] + 1.0,
                                   *expected[key][1:]]}
    assert longvec.check(key, loop, data, compiled, sim, result,
                         perturbed) is not None
    wrong = {name: values + 1.0 for name, values in data.items()}
    assert longvec.check(key, loop, wrong, compiled, sim, result,
                         expected) is not None


def test_perturbed_body_raises_failed_frac():
    frames = [{"kind": "advise", "params": {"kernel": "lfk1"}},
              {"kind": "lint", "params": {"kernel": "lfk3"}}]
    oracle = ['{"a": 1}', '{"b": 2}']
    outcome = common.Outcome("serve-zipf")
    clean = {"burst": (0.0, 1.0), "exit": 0, "samples": [
        (1.0, "ok", "computed", oracle[0]),
        (1.0, "ok", "cache", oracle[1])]}
    servezipf._check(frames, oracle, clean, outcome)
    assert outcome.failed_frac == 0.0
    perturbed = {**clean, "samples": [
        (1.0, "ok", "computed", oracle[0]),
        (1.0, "ok", "cache", '{"b": 3}')]}
    servezipf._check(frames, oracle, perturbed, outcome)
    assert outcome.failed == 1
    assert outcome.failed_frac == pytest.approx(0.25)


def test_regen_check_rejects_another_digest_or_exit_code():
    expected = common.load_expected()["regen_sha256"]
    assert regen.check(0, b"not the output", expected) is not None
    assert regen.check(1, b"", expected) is not None


def _synthetic_serve_pass(kinds: list[str]) -> dict:
    """One untraced serve-zipf pass: a cache hit and a computed answer
    per kind, with a real metrics snapshot and real client stats."""
    from repro.fleet.client import FleetClient
    from repro.service.metrics import ServiceMetrics

    server = ServiceMetrics(shard="r0")
    for kind in kinds:
        server.count(f"requests:{kind}")
        server.observe(kind, 0.5)
    server.count("cache_hits")
    server.count_shard("l1_hits")
    server.count_shard("l2_hits")
    origins = ["cache", "computed"] * len(servezipf.KINDS)
    return {
        "samples": [(1.0, "ok", origin, "{}") for origin in origins],
        "server": server.snapshot(),
        "client": FleetClient({"r0": "tcp:127.0.0.1:1"}).stats(),
    }


def test_per_layer_names_match_benchmark_json():
    from repro.experiments import EXPERIMENTS

    with open(common.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        listed = {m["name"] for m in json.load(handle)["per_layer"]}
    layers = {span for _module, _attr, span, _tagger in tracer.TARGETS}
    layers |= {f"experiments.{name}" for name in EXPERIMENTS}
    spans = [_span(i, 0, name, float(i), i + 0.5)
             for i, name in enumerate(sorted(layers), 1)]
    produced = set(tracer.layer_metrics(spans, passes=1))
    kinds = [kind for kind in servezipf.KINDS for _origin in range(2)]
    produced |= set(servezipf._service_metrics(
        [_synthetic_serve_pass(kinds)], kinds))
    produced.add("trace.overhead_ratio")
    assert listed == produced


def test_an_unreached_layer_has_no_metric():
    assert tracer.layer_metrics([], passes=1) == {}
    only_compile = tracer.layer_metrics(
        [_span(1, 0, "compiler.compile", 0.0, 1.0)], passes=1)
    assert only_compile == {"compiler.calls": 1.0}


def test_missing_layer_metric_is_zero_only_where_the_layer_is_unreached():
    listed = [{"name": "machine.simulate_s", "unit": "s"},
              {"name": "service.computed", "unit": "count"}]
    outcome = common.Outcome("longvec")
    outcome.layer = {"machine.simulate_s": 2.0}
    assert run.layer_values(outcome, ("service.",), listed) == {
        "machine.simulate_s": (2.0, "s"), "service.computed": (0.0, "count")}
    outcome.layer = {}
    with pytest.raises(SystemExit):
        run.layer_values(outcome, ("service.",), listed)
    outcome.fail("a kernel differs")
    assert run.layer_values(outcome, ("service.",), listed) == {
        "service.computed": (0.0, "count")}


def test_a_kernel_that_raises_is_a_failed_kernel(monkeypatch):
    def broken(*_args):
        raise ZeroDivisionError("simulator fault")

    monkeypatch.setattr(longvec, "_run_one", broken)
    kernel = longvec._inputs(seed=5)[0]
    _interval, ran, problem = longvec._attempt(kernel, {})
    assert ran == 0 and "ZeroDivisionError" in problem


def test_a_request_that_raises_is_a_failed_frame(monkeypatch):
    from repro.fleet.client import FleetClient

    def broken(self, kind, params=None, **_kwargs):
        raise ValueError("frontend fault")

    monkeypatch.setattr(FleetClient, "request", broken)
    frames = [{"kind": "lint", "params": {"kernel": "lfk1"}}] * 4
    samples, _stats = servezipf._replay("tcp:127.0.0.1:1", frames)
    outcome = common.Outcome("serve-zipf")
    servezipf._check(frames, ["{}"] * 4,
                     {"burst": (0.0, 1.0), "exit": 0, "samples": samples},
                     outcome)
    assert outcome.failed == 4 and outcome.failed_frac == 1.0


def test_a_workload_that_stops_still_prints_a_failed_result(
        monkeypatch, capsys):
    def stops(*_args):
        raise RuntimeError("worker exited with 1")

    monkeypatch.setattr(regen, "run", stops)
    assert run.main(["--workload", "regen", "--seed", "1",
                     "--seconds", "1", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (1, 1)
    assert result["metrics"] == {"ok_frac": {"value": 0.0, "unit": "frac"}}


def test_run_refuses_a_tree_without_the_program(tmp_path):
    shutil.copytree(common.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "regen",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

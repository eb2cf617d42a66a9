"""Static tier vs the simulated path, like with like.

Both sides are requests for the same kernel through the worker entry
point (:func:`repro.service.jobs.execute_request`):

* **cold** — ``advise`` and ``run``, each right after
  ``clear_caches()``, so each compiles and then predicts or simulates
  from nothing;
* **warm** — ``advise`` answered from the static-prediction memo and
  ``run`` from the run cache.

Advise and run rounds alternate, so a change in host speed hits both
sides alike, and the gates compare medians over :data:`ROUNDS` rounds.
Median advise/run ratios over five runs of this module (7 rounds
each) on a 2-vCPU Xeon VM: cold 1.08-1.23 (cold ``advise`` also builds
the MACS hierarchy and advice), warm 0.35-0.39.  The ceilings leave
about 30% (cold) and 50% (warm) headroom above the largest of those.
"""

import statistics
import time

from repro.service.jobs import execute_request
from repro.service.protocol import canonicalize
from repro.workloads import clear_caches

KERNEL = "lfk7"
ROUNDS = 7
WARM_CALLS = 100
#: ceilings on median(advise) / median(run)
COLD_MAX_RATIO = 1.6
WARM_MAX_RATIO = 0.6


def _payloads():
    return (
        canonicalize("advise", {"kernel": KERNEL}).payload,
        canonicalize("run", {"kernel": KERNEL}).payload,
    )


def _call(payload) -> dict:
    result = execute_request(payload)
    assert result["status"] == "ok", result
    return result


def _cold_s(payload) -> float:
    clear_caches()
    t0 = time.perf_counter()
    _call(payload)
    return time.perf_counter() - t0


def _warm_s(payload) -> float:
    t0 = time.perf_counter()
    for _ in range(WARM_CALLS):
        _call(payload)
    return (time.perf_counter() - t0) / WARM_CALLS


def _compare(benchmark, state, advise_s, run_s, ceiling):
    advise_med = statistics.median(advise_s)
    run_med = statistics.median(run_s)
    ratio = advise_med / run_med
    benchmark.extra_info[f"{state}_advise_ms"] = round(advise_med * 1e3, 3)
    benchmark.extra_info[f"{state}_run_ms"] = round(run_med * 1e3, 3)
    benchmark.extra_info[f"{state}_ratio"] = round(ratio, 3)
    assert ratio <= ceiling, (
        f"{state} advise ({advise_med * 1e3:.3f} ms) / {state} run "
        f"({run_med * 1e3:.3f} ms) = {ratio:.2f} > {ceiling}"
    )


def test_bench_static_cold_advise_vs_cold_run(benchmark):
    advise, run = _payloads()
    # first calls import the static tier and the simulator
    assert _call(advise)["body"]["tier"] == "exact"
    _call(run)
    advise_s, run_s = [], []
    for _ in range(ROUNDS):
        advise_s.append(_cold_s(advise))
        run_s.append(_cold_s(run))
    _compare(benchmark, "cold", advise_s, run_s, COLD_MAX_RATIO)
    benchmark.pedantic(
        execute_request, args=(advise,), setup=clear_caches, rounds=3,
    )


def test_bench_static_warm_advise_vs_warm_run(benchmark):
    advise, run = _payloads()
    assert _call(advise)["body"]["tier"] == "exact"
    _call(run)
    advise_s, run_s = [], []
    for _ in range(ROUNDS):
        advise_s.append(_warm_s(advise))
        run_s.append(_warm_s(run))
    _compare(benchmark, "warm", advise_s, run_s, WARM_MAX_RATIO)
    benchmark.pedantic(
        execute_request, args=(advise,), rounds=10, iterations=10,
    )

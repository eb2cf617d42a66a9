"""``longvec``: long generated vector loops, compiled and simulated.

The loop bodies are a fixed pool of :func:`generate_loop` structures,
so every seed sees the same amount of work and the cycle counts and
counters can be checked against values recorded in ``expected.json``.
The seed draws the array data (checked against
``GeneratedLoop.reference``) and the order the kernels run in.

The benchmark process runs :func:`run`; the single-threaded working
process is this file run as a script (:func:`worker_main`).
"""

from __future__ import annotations

import json
import random
import sys
import time

import common

SIZES = (4096, 8192, 16384, 32768)
MACHINES = ("c240", "c3800like", "cray-nochain")
#: generate_loop seeds of the loop pool: an add, a reduction, and a
#: multiply-add over three arrays
LOOP_SEEDS = (3, 8, 10)
#: untraced passes a run times at least, so each kernel's median has
#: many samples
MIN_PASSES = 28
#: per-layer metric prefixes of layers this workload never calls
UNREACHED = ("workloads.", "schedule.", "model.", "analysis.",
             "experiments.", "service.", "fleet.")
SETUP_REPEATS = 5
SETUP_CODE = (
    "import repro.cli\n"
    "from repro.machines import resolve_machines\n"
    f"resolve_machines({','.join(MACHINES)!r})\n"
)


def kernel_key(loop_seed: int, n: int, machine: str) -> str:
    return f"{loop_seed}/{n}/{machine}"


def run(args, outcome: common.Outcome, workdir, speed) -> None:
    setup = common.time_fresh_imports(
        SETUP_CODE, SETUP_REPEATS, args.seed, workdir
    )
    out = workdir / "longvec.json"
    argv = [sys.executable, str(common.BENCH_DIR / "longvec.py"),
            "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--out", str(out)]
    if args.trace:
        spans = workdir / "spans"
        spans.mkdir()
        argv += ["--trace-dir", str(spans)]
    proc = common.spawn(argv, common.child_env(args.seed), workdir)
    code, rss_mb = common.reap(proc, timeout=150)
    if code != 0:
        raise RuntimeError(f"longvec worker exited with {code}")
    setup += common.time_fresh_imports(
        SETUP_CODE, SETUP_REPEATS, args.seed, workdir
    )
    setup_s = speed.seconds(setup)
    outcome.put("setup_s", common.median(setup_s), "s", len(setup_s),
                "fresh import + machine resolution, before and after")
    report = json.loads(out.read_text(encoding="utf-8"))
    outcome.attempted += report["attempted"]
    for problem in report["problems"]:
        outcome.fail(problem)
    # each kernel's time scaled by the host's speed around it
    passes = [speed.seconds(kernel_intervals)
              for kernel_intervals in report["kernels"]]
    plain = [sum(busy) for busy, traced in zip(passes, report["traced"])
             if not traced]
    ops = [1e3 * elapsed for busy, traced in zip(passes, report["traced"])
           if not traced for elapsed in busy]
    kernels = len(report["order"])
    outcome.put("pass_s", common.median(plain), "s", len(plain),
                f"{kernels} kernels")
    outcome.put("op_p50_ms", common.median(ops), "ms", len(ops),
                "compile+simulate one kernel")
    # every untraced pass runs the kernels in the same order
    outcome.put("op_tail_ms",
                max(common.median(ops[i::kernels]) for i in range(kernels)),
                "ms", len(plain), "slowest kernel, median over passes")
    outcome.put("peak_rss_mb", rss_mb, "MB", 1, "worker max RSS")
    instructions = report["instructions_per_pass"]
    outcome.put("sim_kinstr_per_s", instructions / 1e3 / common.median(plain),
                "kinstr/s", len(plain),
                f"{instructions} instructions per pass / pass_s")
    walls = [sum(t1 - t0 for t0, t1 in kernel_intervals)
             for kernel_intervals, traced
             in zip(report["kernels"], report["traced"]) if not traced]
    common.put_host_speed(outcome, walls, [
        scaled / wall for scaled, wall in zip(plain, walls)])
    if args.trace:
        import tracer

        traced = [sum(busy) for busy, flag in zip(passes, report["traced"])
                  if flag]
        outcome.layer = tracer.layer_metrics(
            tracer.read_spans(workdir / "spans"), len(traced)
        )
        outcome.layer["trace.overhead_ratio"] = (
            common.median(traced) / common.median(plain)
        )


# ----------------------------------------------------------------------
# Working process
# ----------------------------------------------------------------------


def _inputs(seed: int):
    from repro.compiler import DEFAULT_OPTIONS
    from repro.machines import resolve_machines, tuned_options
    from repro.workloads import generate_loop

    machines = resolve_machines(",".join(MACHINES))
    loops = {(s, n): generate_loop(s, n=n) for s in LOOP_SEEDS
             for n in SIZES}
    kernels = []
    for (loop_seed, n), loop in loops.items():
        data = loop.make_data(random.Random(f"{seed}/{loop_seed}/{n}"))
        for description in machines:
            kernels.append((
                kernel_key(loop_seed, n, description.name), loop, data,
                description.config,
                tuned_options(DEFAULT_OPTIONS, description.config),
            ))
    random.Random(seed).shuffle(kernels)
    return kernels


def _run_one(loop, data, config, options):
    import numpy as np

    from repro.compiler import compile_kernel
    from repro.machine import Simulator

    compiled = compile_kernel(loop.source, "longvec", options)
    sim = Simulator(compiled.program, config)
    for name, values in compiled.initial_data(data).items():
        sim.load_symbol(name, values)
    scalars = {"n": float(loop.n), **loop.scalars}
    for name, value in scalars.items():
        sim.memory.load_array(compiled.scalar_word_offset(name),
                              np.asarray([value]))
    return compiled, sim, sim.run()


COUNTERS = ("cycles", "instructions_executed", "vector_instructions",
            "scalar_instructions", "vector_memory_ops",
            "scalar_memory_ops", "flops")


def check(key, loop, data, compiled, sim, result, expected) -> str | None:
    """None when outputs match the reference and the cycles and
    counters match the recorded values; otherwise what differs."""
    import numpy as np

    want = loop.reference(data)
    if loop.is_reduction:
        got = float(sim.memory.dump_array(
            compiled.scalar_word_offset("ACC"), 1)[0])
        good = bool(np.isclose(got, want, rtol=1e-9))
    else:
        got = sim.dump_symbol(loop.output_array)[4:4 + loop.n]
        good = bool(np.allclose(got, want, rtol=1e-9))
    if not good:
        return f"{key}: outputs differ from the reference"
    counters = [getattr(result, name) for name in COUNTERS]
    if key not in expected or counters != expected[key]:
        return (f"{key}: cycles/counters {counters} != recorded "
                f"{expected.get(key)}")
    return None


def _attempt(kernel, expected) -> tuple[tuple[float, float], int,
                                        str | None]:
    """Compile, simulate and check one kernel; return the interval its
    compile and simulation took, the instructions it ran and what failed
    (None when nothing).  An exception is that kernel's failure, not the
    run's."""
    key, loop, data, config, options = kernel
    t0 = time.perf_counter()
    try:
        compiled, sim, result = _run_one(loop, data, config, options)
        interval = (t0, time.perf_counter())
        problem = check(key, loop, data, compiled, sim, result, expected)
    except Exception as exc:  # noqa: BLE001 - counted as a failure
        return (t0, time.perf_counter()), 0, f"{key}: raised {exc!r}"
    return interval, result.instructions_executed, problem


def worker_main(argv) -> int:
    import argparse

    parser = argparse.ArgumentParser(prog="longvec.py")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace-dir", default=None)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    expected = common.load_expected()["longvec"]
    kernels = _inputs(args.seed)
    for kernel in kernels:  # warm-up pass; its failures recur below
        _attempt(kernel, expected)
    # per pass, each kernel's interval on the perf_counter clock, which
    # the benchmark process shares
    passes, traced, problems = [], [], []
    instructions = 0
    attempted = 0
    start = time.perf_counter()
    while (len(passes) - sum(traced) < MIN_PASSES
           or time.perf_counter() - start < args.seconds):
        tracing = args.trace_dir is not None and len(passes) % 2 == 1
        if tracing:
            import tracer

            uninstall = tracer.install(args.trace_dir)
        instructions = 0
        intervals = []
        for kernel in kernels:
            interval, ran, problem = _attempt(kernel, expected)
            intervals.append(interval)
            instructions += ran
            attempted += 1
            if problem is not None:
                problems.append(problem)
        passes.append(intervals)
        traced.append(tracing)
        if tracing:
            uninstall()
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump({
            "attempted": attempted, "problems": problems,
            "kernels": passes, "traced": traced,
            "order": [kernel[0] for kernel in kernels],
            "instructions_per_pass": instructions,
        }, handle)
    return 0


def record() -> dict:
    """Cycles and counters of every pool kernel at the current code."""
    table = {}
    for key, loop, data, config, options in _inputs(0):
        _compiled, _sim, result = _run_one(loop, data, config, options)
        table[key] = [getattr(result, name) for name in COUNTERS]
    return dict(sorted(table.items()))


if __name__ == "__main__":
    raise SystemExit(worker_main(sys.argv[1:]))

"""``regen``: ``python -m repro experiment all`` in a fresh process.

Each pass is one process, import included, so every pass starts cold
(``clear_caches()`` would leave the decode memo warm).  The seed pins
the child's string hashing; the output must not depend on it.

Per-experiment latency is read from the child's unbuffered stdout:
each experiment prints its ``== title ==`` header once it has run, so
the gap between two headers is one experiment's wall time (the first
includes interpreter start-up and import).
"""

from __future__ import annotations

import hashlib
import re
import subprocess
import sys
import time

import common

#: untraced passes a run times at least, so each experiment's median
#: has several samples
MIN_PASSES = 5
#: per-layer metric prefixes of layers this workload never calls
UNREACHED = ("service.", "fleet.")
#: Table 4 kernels whose simulated CPF is compared with the paper's
_TABLE4_ROW = re.compile(
    rb"^\s*(\d+)\s+[\d.]+\s+[\d.]+\s+[\d.]+\s+([\d.]+)\s+[\d.]+%"
)


def cpf_error_pct(stdout: bytes) -> float:
    """Mean |simulated - paper| / paper CPF over the Table 4 kernels,
    in percent, read from the experiment output."""
    from_paper = common.load_expected()["table4_paper_cpf"]
    section = stdout.split(b"== Table 4:", 1)[1].split(b"\n== ", 1)[0]
    errors = []
    for line in section.splitlines():
        match = _TABLE4_ROW.match(line)
        if match and match.group(1).decode() in from_paper:
            paper = from_paper[match.group(1).decode()]
            errors.append(abs(float(match.group(2)) - paper) / paper)
    if len(errors) != len(from_paper):
        raise ValueError("Table 4 rows missing from the output")
    return 100.0 * sum(errors) / len(errors)


def check(code: int, stdout: bytes, expected: str) -> str | None:
    """None for a clean exit with the recorded stdout digest."""
    if code != 0:
        return f"experiment all exited with {code}"
    digest = hashlib.sha256(stdout).hexdigest()
    if digest != expected:
        return f"stdout sha256 {digest} != recorded {expected}"
    return None


def _one_pass(argv, seed, workdir):
    """Run one child; return (exit code, rss MB, stdout, header times
    since the start, start, end)."""
    env = common.child_env(seed, PYTHONUNBUFFERED="1")
    t0 = time.perf_counter()
    proc = common.spawn(argv, env, workdir, stdout=subprocess.PIPE)
    chunks, marks = [], []
    with common.deadline(proc, seconds=120):
        for line in proc.stdout:
            if line.startswith(b"== "):
                marks.append(time.perf_counter() - t0)
            chunks.append(line)
    proc.stdout.close()
    code, rss = common.reap(proc, timeout=10)
    return code, rss, b"".join(chunks), marks, t0, time.perf_counter()


def run(args, outcome: common.Outcome, workdir, speed) -> None:
    expected = common.load_expected()["regen_sha256"]
    plain_argv = [sys.executable, "-m", "repro", "experiment", "all"]
    spans = workdir / "spans"
    traced_argv = [sys.executable, str(common.BENCH_DIR / "tracer.py"),
                   str(spans), "experiment", "all"]
    if args.trace:
        spans.mkdir()
    # wall-clock intervals, scaled to the reference host once timed
    setup, plain, traced, marks, rss, cpf = [], [], [], [], [], []
    start = time.perf_counter()
    while ((len(plain) < MIN_PASSES and outcome.attempted < 4 * MIN_PASSES)
           or time.perf_counter() - start < args.seconds):
        tracing = args.trace and (len(plain) + len(traced)) % 2 == 1
        setup += common.time_fresh_imports("import repro.cli", 1,
                                           args.seed, workdir)
        code, peak, stdout, pass_marks, t0, t1 = _one_pass(
            traced_argv if tracing else plain_argv, args.seed, workdir
        )
        outcome.attempted += 1
        problem = check(code, stdout, expected)
        if problem is not None:
            outcome.fail(problem)
            continue
        if tracing:
            traced.append((t0, t1))
            continue
        plain.append((t0, t1))
        rss.append(peak)
        marks.append(pass_marks)
        cpf.append(cpf_error_pct(stdout))
    if not plain:
        return  # every untraced pass failed: there is nothing to time
    setup_s = speed.seconds(setup)
    scales = speed.factors(plain)
    pass_s = [scale * (t1 - t0) for scale, (t0, t1) in zip(scales, plain)]
    # each experiment scaled by the host's speed around it
    ops = [speed.seconds((t0 + a, t0 + b)
                         for a, b in zip([0.0] + times, times))
           for (t0, _), times in zip(plain, marks)]
    # Every pass prints the same headers (its digest says so), so gap i
    # is the same experiment in every pass.  The first gap also holds
    # start-up and import, which setup_s measures.
    experiments = [common.median(times) for times in list(zip(*ops))[1:]]
    outcome.put("setup_s", common.median(setup_s), "s", len(setup_s),
                "fresh import of repro.cli, once before each pass")
    outcome.put("pass_s", common.median(pass_s), "s", len(pass_s),
                "one experiment-all process, import included")
    outcome.put("op_p50_ms", 1e3 * common.median(experiments), "ms",
                len(experiments) * len(pass_s),
                "median experiment, each a median over passes")
    outcome.put("op_tail_ms", 1e3 * max(experiments), "ms", len(pass_s),
                "slowest experiment, median over passes")
    outcome.put("peak_rss_mb", common.median(rss), "MB", len(rss),
                "experiment-all process max RSS")
    outcome.put("regen_s", common.median(pass_s), "s", len(pass_s),
                "= pass_s")
    common.put_host_speed(outcome, [t1 - t0 for t0, t1 in plain], scales)
    outcome.put("cpf_err_pct", common.median(cpf), "%", len(cpf),
                "mean |simulated - paper| / paper CPF, ten Table 4 kernels")
    if args.trace:
        import tracer

        outcome.layer = tracer.layer_metrics(
            tracer.read_spans(spans), len(traced)
        )
        outcome.layer["trace.overhead_ratio"] = (
            common.median(speed.seconds(traced)) / common.median(pass_s)
        )

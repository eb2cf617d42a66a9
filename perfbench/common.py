"""Shared pieces of the benchmark: statistics, child processes,
provenance and the result a run prints.

Nothing here imports ``repro``: the harness process stays free of the
program's memo tables unless a workload's own set-up needs them.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Repository root: the directory holding ``perfbench/``.
ROOT = Path(__file__).resolve().parent.parent
#: The package under test, built from source (pure Python: no build).
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
EXPECTED_PATH = BENCH_DIR / "expected.json"

#: Percentiles the tail rule may pick from, highest first.
TAIL_LADDER = (99, 95, 90, 75, 50)
#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def percentile(values, p: float) -> float:
    """Nearest-rank percentile ``p`` (0 < p <= 100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(count: int) -> int | None:
    """The highest ladder percentile with at least ten samples beyond.

    ``None`` when even the median has fewer than ten samples above it.
    """
    for p in TAIL_LADDER:
        if count * (100 - p) >= TAIL_BEYOND * 100:
            return p
    return None


def median(values) -> float:
    return statistics.median(values)


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------


@dataclass
class Metric:
    value: float
    unit: str
    #: samples the value summarizes (a median's count, a ratio's base)
    samples: int
    note: str = ""


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    workload: str
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, Metric] = field(default_factory=dict)
    #: one line per failed check, for the report
    problems: list[str] = field(default_factory=list)
    #: human-readable extras (derived figures, provenance)
    info: dict[str, object] = field(default_factory=dict)
    #: per-layer metrics of a traced run
    layer: dict[str, float] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def put(self, name: str, value: float, unit: str, samples: int,
            note: str = "") -> None:
        self.metrics[name] = Metric(float(value), unit, samples, note)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def put_host_speed(outcome: Outcome, walls: list[float],
                   scales: list[float]) -> None:
    """Report the figures behind the scaling: the pass time as the wall
    clock read it, and the host-speed factor."""
    outcome.put("pass_wall_s", median(walls), "s", len(walls),
                "pass_s on the wall clock, before scaling")
    outcome.put("host_factor", median(scales), "x", len(scales),
                "reference-host seconds per wall second")


def result_line(outcome: Outcome, metrics: dict[str, tuple]) -> str:
    """The contract's last stdout line; ``metrics`` maps each name to
    its (value, unit)."""
    return json.dumps({
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def report_lines(outcome: Outcome) -> list[str]:
    lines = [f"# workload {outcome.workload}: attempted "
             f"{outcome.attempted}, failed {outcome.failed} "
             f"(failed_frac {outcome.failed_frac:.4g})"]
    for name, metric in outcome.metrics.items():
        note = f"  [{metric.note}]" if metric.note else ""
        lines.append(f"#   {name:<42} {metric.value:>14.6g} "
                     f"{metric.unit:<6} n={metric.samples}{note}")
    for key, value in outcome.info.items():
        lines.append(f"#   {key}: {value}")
    for problem in outcome.problems:
        lines.append(f"#   FAILED: {problem}")
    return lines


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest() -> str:
    """sha256 over every file under ``src/``: identifies the code
    measured even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(args) -> dict:
    try:
        from importlib.metadata import version

        numpy_version = version("numpy")
    except Exception:  # noqa: BLE001 - provenance is best effort
        numpy_version = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": _git_commit(),
        "src_sha256": source_digest(),
    }


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------


def child_env(seed: int, **extra: str) -> dict:
    """Environment for a program process: the source tree on the path
    and string hashing pinned to the run's seed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = str(seed % 4294967296)
    env.update(extra)
    return env


def spawn(argv: list[str], env: dict, cwd: Path, **kwargs):
    """Start a child in its own session so every process it starts can
    be stopped with it."""
    return subprocess.Popen(
        argv, env=env, cwd=cwd, start_new_session=True, **kwargs
    )


def reap(proc: subprocess.Popen, timeout: float) -> tuple[int, float]:
    """Wait for ``proc``; return its exit code and peak RSS in MB.

    The child's whole session is killed if it outlives ``timeout`` and
    once it has exited, so no grandchild survives it.
    """
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            _kill_session(proc.pid)
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.002)
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_session(proc.pid)
    return proc.returncode, usage.ru_maxrss / 1024.0


@contextlib.contextmanager
def deadline(proc: subprocess.Popen, seconds: float):
    """Kill ``proc``'s session if the block has not ended in time, so a
    blocking read of its output cannot outlive the run."""
    timer = threading.Timer(seconds, _kill_session, args=(proc.pid,))
    timer.start()
    try:
        yield
    finally:
        timer.cancel()


def _kill_session(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


@contextlib.contextmanager
def one_cpu():
    """Run the block, and every process started in it, on one CPU.

    The host-speed sampler then times the CPU the program runs on, and
    the serve-zipf client and replica hand each request over on one CPU
    instead of waking an idle one, whose wake-up latency on a shared
    host is noise.  One request is in flight at a time, so the program
    loses no parallelism it would use.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def time_fresh_imports(code: str, repeats: int, seed: int,
                       cwd: Path) -> list[tuple[float, float]]:
    """Start and end, on the ``perf_counter`` clock, of ``repeats``
    fresh interpreters running ``code`` (start-up and import
    included)."""
    intervals = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = spawn([sys.executable, "-c", code], child_env(seed), cwd,
                     stdout=subprocess.DEVNULL)
        code_, _ = reap(proc, timeout=60)
        intervals.append((t0, time.perf_counter()))
        if code_ != 0:
            raise RuntimeError(f"set-up import exited with {code_}")
    return intervals

"""Host speed, sampled beside the workload.

    python3 perfbench/hostspeed.py OUT

times a fixed pure-Python reference loop every ``PERIOD_S`` seconds
until SIGTERM, and appends ``start duration`` (``perf_counter``
seconds) to OUT after each sample.

The benchmark runs on a shared VM whose CPU runs the same code at
speeds about 2x apart and switches between them within seconds: regen
passes of one commit took from 1.4 s to 3.1 s.  A reference timed before
and after a pass cannot follow that.  So :class:`Sampler` runs this file
beside the workload, on the one CPU the workload is pinned to, and
:func:`factors` scales a wall time to seconds on the reference host by
the loop's speed during that interval::

    scaled = wall * REFERENCE_S / trimmed mean of the loop's durations

A sample preempts the workload for 0.5 to 1 ms every ``PERIOD_S``,
which costs the workload about 2% of its CPU, the same on every run.
"""

from __future__ import annotations

import bisect
import gc
import os
import signal
import sys
import time
from pathlib import Path

import common

#: Seconds one reference loop takes on the host the benchmark was
#: defined on (2-vCPU Intel Xeon VM, Python 3.11) at its faster speed.
REFERENCE_S = 0.0005
#: seconds the sampler sleeps between samples
PERIOD_S = 0.04
#: samples a factor averages at least, taken around a short interval
MIN_SAMPLES = 10
#: share of the slowest and of the fastest samples a factor leaves out
TRIM = 0.1


class _Register:
    __slots__ = ("value", "count")

    def __init__(self) -> None:
        self.value = 0
        self.count = 0

    def add(self, x: int) -> int:
        self.value += x
        self.count += 1
        return self.value & 1023


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int) -> None:
        self.x = x
        self.y = y


def reference_loop() -> int:
    """Fixed pure-Python work in the mix the program runs: integer
    arithmetic, method calls on small objects, dict updates, and
    allocating and sorting objects.

    While the host's speed varied twofold, the loop's time followed the
    regen pass time with slope 1.04 on a log-log fit and correlation
    0.98 (2-vCPU Intel Xeon VM).
    """
    total = 0
    for i in range(3000):
        total += i * i
    registers = [_Register() for _ in range(8)]
    table: dict[int, int] = {}
    for i in range(700):
        key = registers[i & 7].add(i) & 63
        table[key] = table.get(key, 0) + 1
    points = []
    for i in range(500):
        point = _Point(i, (i * 7919) % 1009)
        table[point.y] = table.get(point.y, 0) + point.x
        points.append(point)
    points.sort(key=lambda point: point.y)
    return total + len(table) + points[0].x


def trimmed_mean(values: list[float], trim: float = TRIM) -> float:
    """Mean of ``values`` without the ``trim`` share at either end.

    A mean, not a median: the host switches between two speeds, and the
    time an interval took follows the share of it spent at each."""
    ordered = sorted(values)
    cut = int(len(ordered) * trim)
    kept = ordered[cut:len(ordered) - cut] or ordered
    return sum(kept) / len(kept)


class Sampler:
    """The sampler process of one workload run, and the factors its
    samples give."""

    def __init__(self, workdir: Path):
        self.path = Path(workdir) / "hostspeed.txt"
        self.workdir = Path(workdir)

    def __enter__(self) -> "Sampler":
        self.proc = common.spawn(
            [sys.executable, str(Path(__file__).resolve()), str(self.path)],
            dict(os.environ), self.workdir,
        )
        return self

    def __exit__(self, *exc_info) -> None:
        try:
            os.kill(self.proc.pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
        common.reap(self.proc, timeout=10)

    def samples(self) -> list[tuple[float, float]]:
        """Every complete sample written so far, by start time."""
        if not self.path.exists():
            return []
        samples = []
        with open(self.path, encoding="utf-8") as handle:
            for line in handle:
                fields = line.split()
                if line.endswith("\n") and len(fields) == 2:
                    samples.append((float(fields[0]), float(fields[1])))
        return samples

    def factors(self, intervals) -> list[float]:
        """:func:`factors` of the samples written so far."""
        return factors(self.samples(), intervals)

    def seconds(self, intervals) -> list[float]:
        """Each (t0, t1) interval's length in reference-host seconds."""
        intervals = list(intervals)
        return [factor * (t1 - t0) for factor, (t0, t1)
                in zip(self.factors(intervals), intervals)]


def factors(samples: list[tuple[float, float]],
            intervals) -> list[float]:
    """Reference-host seconds per wall second over each (t0, t1).

    Each factor averages the samples started in its interval, widened on
    both sides until it holds ``MIN_SAMPLES`` of them.
    """
    if not samples:
        raise RuntimeError("the host-speed sampler recorded nothing")
    starts = [start for start, _ in samples]
    result = []
    for t0, t1 in intervals:
        lo = bisect.bisect_left(starts, t0)
        hi = bisect.bisect_left(starts, t1)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(samples)):
            lo, hi = max(0, lo - 1), min(len(samples), hi + 1)
        result.append(REFERENCE_S / trimmed_mean(
            [duration for _, duration in samples[lo:hi]]))
    return result


def sample_until_stopped(out: str) -> int:
    stop: list[bool] = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    gc.disable()
    with open(out, "a", encoding="utf-8") as handle:
        while not stop:
            t0 = time.perf_counter()
            reference_loop()
            handle.write(f"{t0!r} {time.perf_counter() - t0!r}\n")
            handle.flush()
            time.sleep(PERIOD_S)
    return 0


if __name__ == "__main__":
    raise SystemExit(sample_until_stopped(sys.argv[1]))

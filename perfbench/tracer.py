"""Spans around calls into each layer, recorded from outside ``src/``.

    python3 perfbench/tracer.py SPANS ARGS...

runs ``macs-repro ARGS...`` with every layer entry point wrapped in a
span, writing the spans under the directory SPANS.

:func:`install` wraps every layer entry point in :data:`TARGETS` and
every entry of ``repro.experiments.EXPERIMENTS``.  A
``from … import name`` binds the function into the importing module at
import time, so each wrapper is installed on the defining module *and*
on every loaded ``repro`` module that holds the same object, i.e. where
each caller looks the name up.  Methods are wrapped on their class.

Each process keeps its spans in memory (id, parent, name, start, end,
tags) on a per-thread stack and appends them to
``<dir>/spans-<pid>.jsonl`` whenever a root span closes and when the
process exits.  Flushing at root close is what lets worker processes
that a server stops without running ``atexit`` still leave their spans.

:func:`layer_metrics` turns span files into the per-layer metrics of
the layers the spans reached.  Self time is a span's duration minus
the part of it its child spans cover.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute or Class.method, span name, tagger)
#: Layer entry points, in layer order.  The tagger names a function of
#: the call's result that returns counters recorded on the span.
TARGETS: tuple[tuple[str, str, str, str | None], ...] = (
    ("repro.lang.parser", "parse_source", "lang.parse", None),
    ("repro.lang.semantics", "analyze_program", "lang.analysis", None),
    ("repro.lang.analysis", "analyze_loop", "lang.analysis", None),
    ("repro.compiler.codegen", "compile_kernel", "compiler.compile",
     None),
    ("repro.compiler.vectorizer", "Vectorizer.build",
     "compiler.vectorize", None),
    ("repro.compiler.regalloc", "allocate_registers",
     "compiler.regalloc", None),
    ("repro.compiler.codegen", "CodeGenerator.compile",
     "compiler.codegen", None),
    ("repro.workloads.runner", "compile_spec", "workloads.compile_spec",
     None),
    ("repro.workloads.runner", "run_kernel", "workloads.run_kernel",
     None),
    ("repro.schedule.chimes", "partition_chimes", "schedule.chimes",
     None),
    ("repro.model.bounds", "ma_bound", "model.bounds", None),
    ("repro.model.bounds", "mac_bound", "model.bounds", None),
    ("repro.model.macs", "macs_bound", "model.bounds", None),
    ("repro.model.macs", "macs_f_bound", "model.bounds", None),
    ("repro.model.macs", "macs_m_bound", "model.bounds", None),
    ("repro.model.dbound", "macs_d_bound", "model.bounds", None),
    ("repro.model.ax", "measure_ax", "model.ax", None),
    ("repro.model.statictier", "predict_kernel", "model.statictier",
     None),
    ("repro.analysis.staticpred", "predict_program",
     "analysis.staticpred", "prediction_tags"),
    ("repro.analysis", "lint_program", "analysis.lint", None),
    ("repro.machine.semantics", "decode_program", "machine.decode",
     None),
    ("repro.machine.simulator", "Simulator.run", "machine.simulate",
     "simulation_tags"),
)

#: Modules imported before patching, so that every module binding a
#: target by ``from … import`` already holds the original object.
PRELOAD = (
    "repro.cli",
    "repro.experiments",
    "repro.model.statictier",
    "repro.analysis.staticpred",
    "repro.service.server",
    "repro.service.jobs",
    "repro.fleet",
)


def simulation_tags(result) -> dict:
    tags = {"instr": result.instructions_executed,
            "vec": result.vector_instructions}
    stats = result.fastpath
    if stats is not None:
        tags.update(loops=stats.loops_detected, eng=stats.engagements,
                    skip=stats.instructions_skipped)
    return tags


def prediction_tags(result) -> dict:
    return {"exact": int(result.tier == "exact")}


#: Span ids, unique within a process across every Tracer it creates
#: (longvec installs one per traced pass, all writing to one file).
_IDS = itertools.count(1)


class Tracer:
    """In-memory span recorder for one process (thread-safe)."""

    def __init__(self, directory: str | os.PathLike):
        self.directory = Path(directory)
        self._lock = threading.Lock()
        self._reset()
        os.register_at_fork(after_in_child=self._reset)
        atexit.register(self.flush)

    def _reset(self) -> None:
        self.pid = os.getpid()
        self._pending: list[list] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, tagger=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(_IDS)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                record = [span_id, parent, name, t0, t1, None]
                with tracer._lock:
                    tracer._pending.append(record)
            if tagger is not None:
                record[5] = tagger(result)
            if not stack:
                tracer.flush()
            return result

        return traced

    def flush(self) -> None:
        with self._lock:
            pending, self._pending = self._pending, []
        if not pending:
            return
        path = self.directory / f"spans-{self.pid}.jsonl"
        lines = "".join(json.dumps(record) + "\n" for record in pending)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(lines)


def install(directory: str | os.PathLike):
    """Wrap every target, and each entry of ``EXPERIMENTS`` as
    ``experiments.<name>``; return a function that removes the wrappers.
    """
    for name in PRELOAD:
        importlib.import_module(name)
    tracer = Tracer(directory)
    undo: list[tuple[object, str, object]] = []
    for module_name, attr, span, tagger in TARGETS:
        owner = importlib.import_module(module_name)
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
        original = getattr(owner, attr)
        wrapped = tracer.wrap(
            span, original,
            globals()[tagger] if tagger is not None else None,
        )
        holders = [owner]
        if isinstance(owner, type(sys)):
            holders += [
                module for module_name_, module in list(sys.modules.items())
                if module_name_.startswith("repro") and module is not owner
                and getattr(module, attr, None) is original
            ]
        for holder in holders:
            setattr(holder, attr, wrapped)
            undo.append((holder, attr, original))
    from repro.experiments import EXPERIMENTS

    for name, run in list(EXPERIMENTS.items()):
        EXPERIMENTS[name] = tracer.wrap(f"experiments.{name}", run)
        undo.append((EXPERIMENTS, name, run))

    def uninstall() -> None:
        tracer.flush()
        for holder, attr, original in reversed(undo):
            if isinstance(holder, dict):
                holder[attr] = original
            else:
                setattr(holder, attr, original)

    return uninstall


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------


def read_spans(directory: str | os.PathLike) -> list[tuple[int, list]]:
    """Every span written under ``directory``, as (pid, record)."""
    spans = []
    for path in sorted(Path(directory).glob("spans-*.jsonl")):
        pid = int(path.stem.split("-", 1)[1])
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                if line.strip():
                    spans.append((pid, json.loads(line)))
    return spans


def _covered(intervals: list[tuple[float, float]], lo: float,
             hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            total += stop - start
            end = stop
    return total


def self_times(spans: list[tuple[int, list]]) -> dict[tuple, float]:
    """(pid, span id) -> duration minus the time children cover."""
    children: dict[tuple, list] = defaultdict(list)
    for pid, (span_id, parent, _name, t0, t1, _tags) in spans:
        if parent:
            children[(pid, parent)].append((t0, t1))
    return {
        (pid, record[0]): (record[4] - record[3]) - _covered(
            children.get((pid, record[0]), []), record[3], record[4]
        )
        for pid, record in spans
    }


#: per-layer time metric -> span names whose self time it sums
SELF_TIME_METRICS = {
    "lang.parse_s": ("lang.parse",),
    "lang.analysis_s": ("lang.analysis",),
    "compiler.vectorize_s": ("compiler.vectorize",),
    "compiler.regalloc_s": ("compiler.regalloc",),
    "compiler.codegen_s": ("compiler.codegen",),
    "schedule.chimes_s": ("schedule.chimes",),
    "model.bounds_s": ("model.bounds",),
    "model.ax_s": ("model.ax",),
    "model.statictier_s": ("model.statictier",),
    "analysis.staticpred_s": ("analysis.staticpred",),
    "analysis.lint_s": ("analysis.lint",),
    "machine.decode_s": ("machine.decode",),
    "machine.simulate_s": ("machine.simulate",),
}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(spans: list[tuple[int, list]],
                  passes: int) -> dict[str, float]:
    """Per-layer metrics per traced pass (counts and seconds).

    A metric is present only when the spans reached the layer it reads:
    a layer no span entered has no value, not a value of 0.
    """
    selfs = self_times(spans)
    by_name: dict[str, list] = defaultdict(list)
    for pid, record in spans:
        by_name[record[2]].append((pid, record))
    # which spans have a descendant of a given name
    parents = {(pid, record[0]): (pid, record[1]) for pid, record in spans}

    def ancestors_of(name: str) -> set:
        found = set()
        for pid, record in by_name.get(name, []):
            key = parents[(pid, record[0])]
            while key[1]:
                found.add(key)
                key = parents.get(key, (pid, 0))
        return found

    def hit_ratio(outer: str, inner: str) -> float:
        calls = by_name[outer]
        reached = ancestors_of(inner)
        hits = sum(1 for pid, record in calls
                   if (pid, record[0]) not in reached)
        return hits / len(calls)

    per_pass = 1.0 / max(1, passes)
    metrics = {}
    for metric, names in SELF_TIME_METRICS.items():
        if any(name in by_name for name in names):
            metrics[metric] = per_pass * sum(
                selfs[(pid, record[0])]
                for name in names for pid, record in by_name.get(name, [])
            )
    if "compiler.compile" in by_name:
        metrics["compiler.calls"] = per_pass * len(
            by_name["compiler.compile"]
        )
    for metric, outer, inner in (
        ("workloads.compile_hit_ratio", "workloads.compile_spec",
         "compiler.compile"),
        ("workloads.run_hit_ratio", "workloads.run_kernel",
         "machine.simulate"),
        ("model.statictier_hit_ratio", "model.statictier",
         "analysis.staticpred"),
    ):
        if outer in by_name:
            metrics[metric] = hit_ratio(outer, inner)
    if "analysis.staticpred" in by_name:
        predictions = [record[5] or {}
                       for _pid, record in by_name["analysis.staticpred"]]
        metrics["analysis.staticpred_exact_frac"] = (
            sum(tags.get("exact", 0) for tags in predictions)
            / len(predictions)
        )
    if "machine.simulate" in by_name:
        runs = [record[5] or {}
                for _pid, record in by_name["machine.simulate"]]
        instructions = sum(tags.get("instr", 0) for tags in runs)
        metrics["machine.instructions"] = per_pass * instructions
        metrics["machine.vector_frac"] = _ratio(
            sum(tags.get("vec", 0) for tags in runs), instructions
        )
        metrics["machine.ns_per_instr"] = _ratio(
            1e9 * metrics["machine.simulate_s"] / per_pass, instructions
        )
        # a run without fast-path statistics engaged and skipped nothing
        metrics["machine.fastpath_engage_ratio"] = _ratio(
            sum(tags.get("eng", 0) for tags in runs),
            sum(tags.get("loops", 0) for tags in runs),
        )
        metrics["machine.fastpath_skipped_frac"] = _ratio(
            sum(tags.get("skip", 0) for tags in runs), instructions
        )
    for name, records in by_name.items():
        if name.startswith("experiments."):
            metrics[f"{name}_s"] = per_pass * sum(
                record[4] - record[3] for _pid, record in records
            )
    return metrics


def main(argv: list[str]) -> int:
    install(argv[0])
    from repro.cli import main as cli_main

    return cli_main(argv[1:])


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload regen --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics named in BENCHMARK.json
with tracing off; ``--trace 1`` alternates untraced and traced passes
and reports the per-layer metrics plus the tracing overhead.
``--workload all`` runs every workload in turn.  Lines starting with
``#`` are the human-readable report (provenance, every metric with its
unit and sample count, failed checks); the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

A program fault is a failed operation, never a crash of the benchmark:
a workload that stops on an exception counts one failed operation and
still prints the result line, with ``correct`` false and only the
metrics it measured.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import traceback

import common
import hostspeed
import longvec
import regen
import servezipf

WORKLOADS = {"regen": regen, "longvec": longvec, "serve-zipf": servezipf}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def layer_values(outcome: common.Outcome, unreached: tuple[str, ...],
                 listed: list[dict]) -> dict[str, tuple[float, str]]:
    """The listed per-layer metrics of one workload.

    A metric of a layer the workload never calls (a name starting with
    one of ``unreached``) reads 0.  Any other missing metric stops the
    run, unless operations failed: then it is left out.
    """
    values = {}
    for metric in listed:
        name = metric["name"]
        if name in outcome.layer:
            values[name] = (outcome.layer[name], metric["unit"])
        elif name.startswith(unreached):
            values[name] = (0.0, metric["unit"])
        elif not outcome.failed:
            raise SystemExit(f"error: {outcome.workload} measured no "
                             f"per-layer metric {name}")
    return values


def run_workload(name: str, args, bench: dict) -> tuple[common.Outcome,
                                                          dict]:
    """Run one workload; return its outcome and contract metrics."""
    workdir = common.ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    outcome = common.Outcome(name)
    try:
        with common.one_cpu(), hostspeed.Sampler(workdir) as speed:
            WORKLOADS[name].run(args, outcome, workdir, speed)
    except Exception as exc:  # noqa: BLE001 - reported as a failure
        traceback.print_exc()
        outcome.attempted += 1
        outcome.fail(f"{name} stopped: {exc!r}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    outcome.put("ok_frac", 1.0 - outcome.failed_frac, "frac",
                outcome.attempted, "operations that passed their checks")
    outcome.put("failed_frac", outcome.failed_frac, "frac",
                outcome.attempted, "= 1 - ok_frac")
    if args.trace:
        return outcome, layer_values(outcome, WORKLOADS[name].UNREACHED,
                                     bench["per_layer"])
    metrics = {}
    for metric in bench["end_to_end"]:
        measured = outcome.metrics.get(metric["name"])
        if measured is not None:
            metrics[metric["name"]] = (measured.value, metric["unit"])
        elif not outcome.failed:
            raise SystemExit(f"error: {name} measured no {metric['name']}")
    return outcome, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {common.SRC}",
              file=sys.stderr)
        return 2
    with open(common.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print("# provenance " + json.dumps(common.provenance(args)), flush=True)
    combined = common.Outcome(args.workload)
    metrics = {}
    for name in names:
        outcome, measured = run_workload(name, args, bench)
        for line in common.report_lines(outcome):
            print(line)
        if args.trace:
            for metric, (value, unit) in measured.items():
                print(f"#   {metric:<42} {value:>14.6g} {unit}")
        combined.attempted += outcome.attempted
        combined.failed += outcome.failed
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + key: value
                        for key, value in measured.items()})
    print(common.result_line(combined, metrics), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

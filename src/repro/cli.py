"""Command-line interface: ``macs-repro`` / ``python -m repro``.

Subcommands::

    macs-repro list                      # available experiments/kernels
    macs-repro experiment table4         # regenerate one paper artifact
    macs-repro experiment all            # regenerate everything
    macs-repro analyze lfk1              # MACS hierarchy for one kernel
    macs-repro compile lfk8              # show generated assembly
    macs-repro lint lfk1                 # static dataflow lint
    macs-repro run lfk3                  # simulate and report cycles
    macs-repro run lfk3 --machine c210   # ... on another machine
    macs-repro machines list             # shipped machine family
    macs-repro machines validate m.toml  # schema-check machine files
    macs-repro experiment rank --machine all  # rank the family
    macs-repro sweep --jobs 4            # parallel workload x option grid
    macs-repro sweep --machine all lfk1  # add a machine axis
    macs-repro fsck sweep.ckpt           # integrity-scan an artifact log
    macs-repro --chaos plan.json sweep   # run under fault injection
    macs-repro serve --socket /tmp/m.s   # batching analysis server
    macs-repro request bound --kernel lfk1 --endpoint unix:/tmp/m.s
    macs-repro fleet record --out b.ndjson --frames 200  # Zipf burst
    macs-repro fleet replay --replicas 3 --jobs 4  # sharded replay
                                         # + byte-identity gate

Exit codes map the error taxonomy (see ``docs/sweep.md`` and
``docs/robustness.md``): 0 success, 1 findings (lint errors, failed
sweep cells reported as results), 2 usage errors, 3 workload/compile-
layer errors, 4 simulation/machine errors (including exhausted
watchdog budgets and expired request deadlines), 5 infrastructure
errors (store corruption, crashed sweeps, bad fault plans), 6 server
unavailable (cannot connect, admission-rejected, draining).
"""

from __future__ import annotations

import argparse
import sys
import time

from .errors import (
    BudgetExceededError,
    ExperimentError,
    MachineError,
    ReproError,
    StoreError,
)
from .experiments import EXPERIMENTS
from .isa.printer import format_program
from .machine import DEFAULT_CONFIG
from .model import analyze_kernel, macs_bound
from .workloads import (
    clear_caches,
    compile_spec,
    kernel,
    kernel_names,
    run_kernel,
    workload,
    workload_names,
)


#: Exit-code contract (documented in docs/sweep.md).
EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2
EXIT_WORKLOAD = 3
EXIT_SIMULATION = 4
EXIT_INFRASTRUCTURE = 5
EXIT_SERVER = 6


def exit_code_for(exc: ReproError) -> int:
    """Map a taxonomy error to the CLI exit-code contract."""
    if isinstance(exc, (MachineError, BudgetExceededError)):
        return EXIT_SIMULATION
    if isinstance(exc, (ExperimentError, StoreError)):
        return EXIT_INFRASTRUCTURE
    return EXIT_WORKLOAD


def _cmd_list(_args) -> int:
    print("experiments:")
    for name in EXPERIMENTS:
        print(f"  {name}")
    print("kernels:")
    for name in kernel_names():
        spec = kernel(name)
        print(f"  {name}: {spec.title}")
    return 0


def _apply_sweep_flags(args) -> None:
    """Install --jobs/--trace as the process-wide sweep defaults."""
    from .sweep import set_sweep_defaults

    trace = getattr(args, "trace", None)
    if trace:
        open(trace, "w", encoding="utf-8").close()  # fresh trace
    set_sweep_defaults(jobs=getattr(args, "jobs", None), trace=trace)


def _machine_description(args):
    """Resolve --machine (builtin name or file path), or None."""
    name = getattr(args, "machine", None)
    if name is None:
        return None
    from .machines import machine

    return machine(name)


def _cmd_experiment(args) -> int:
    _apply_sweep_flags(args)
    if args.machine is not None or args.kernels is not None:
        # Only the rank experiment is parameterized by machine/kernels.
        if args.name != "rank":
            print(
                "error: --machine/--kernels only apply to "
                "'experiment rank'",
                file=sys.stderr,
            )
            return 2
        from .experiments.rank import run_rank

        kernels = None
        if args.kernels is not None:
            kernels = tuple(
                k.strip() for k in args.kernels.split(",") if k.strip()
            )
            for name in kernels:
                workload(name)  # fail fast on unknown workloads
        print(run_rank(
            machines=args.machine or "all", kernels=kernels
        ).render())
        return 0
    if args.name == "all":
        for name, run in EXPERIMENTS.items():
            print(run().render())
            print()
        return 0
    run = EXPERIMENTS.get(args.name)
    if run is None:
        print(
            f"unknown experiment {args.name!r}; known: "
            f"{', '.join(EXPERIMENTS)}",
            file=sys.stderr,
        )
        return 2
    print(run().render())
    return 0


def _cmd_analyze(args) -> int:
    description = _machine_description(args)
    if description is None:
        analysis = analyze_kernel(args.kernel)
    else:
        from .compiler import DEFAULT_OPTIONS
        from .machines import tuned_options

        print(f"machine: {description.name} ({description.summary()})")
        analysis = analyze_kernel(
            args.kernel,
            options=tuned_options(
                DEFAULT_OPTIONS, description.config
            ),
            config=description.config,
        )
    print(analysis.report())
    return 0


def _lint_findings(spec, compiled=None):
    """Lint one workload's compiled program with its trip profile."""
    from .analysis import LintOptions, lint_program

    if compiled is None:
        compiled = compile_spec(spec)
    return lint_program(
        compiled.program,
        LintOptions(trips=tuple(spec.trip_profile)),
    )


def _cmd_lint(args) -> int:
    import json

    from .analysis import Severity

    try:
        minimum = Severity.parse(args.min_severity)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    names = (
        workload_names() if args.kernel == "all" else [args.kernel]
    )
    exit_code = 0
    payload = []
    for name in names:
        spec = workload(name)
        findings = _lint_findings(spec)
        errors = sum(
            1 for f in findings if f.severity >= Severity.ERROR
        )
        if errors:
            exit_code = 1
        shown = [f for f in findings if f.severity >= minimum]
        if args.json:
            payload.append(
                {
                    "kernel": name,
                    "errors": errors,
                    "findings": [f.to_dict() for f in shown],
                }
            )
            continue
        for finding in shown:
            print(finding.format())
        counts = {
            severity: sum(
                1 for f in findings if f.severity is severity
            )
            for severity in Severity
        }
        print(
            f"{name}: {counts[Severity.ERROR]} error(s), "
            f"{counts[Severity.WARNING]} warning(s), "
            f"{counts[Severity.INFO]} info"
        )
    if args.json:
        print(json.dumps(payload, indent=2))
    return exit_code


def _cmd_compile(args) -> int:
    from .compiler.options import DEFAULT_OPTIONS

    options = DEFAULT_OPTIONS
    if args.strict:
        options = options.replace(verify=True)
    compiled = compile_spec(kernel(args.kernel), options)
    print(format_program(compiled.program))
    for plan in compiled.loops:
        status = "vectorized" if plan.vectorized else (
            f"scalar fallback ({plan.reason})"
        )
        print(f"; loop over {plan.loop.var}: {status}")
    return 0


def _cmd_svg(args) -> int:
    from .experiments.svg import write_figure2_svg, write_figure3_svg

    writers = {"figure2": write_figure2_svg, "figure3": write_figure3_svg}
    writer = writers.get(args.figure)
    if writer is None:
        print(
            f"no SVG writer for {args.figure!r}; "
            f"known: {', '.join(writers)}",
            file=sys.stderr,
        )
        return 2
    path = writer(args.out)
    print(f"wrote {path}")
    return 0


def _cmd_report(args) -> int:
    from .experiments.report import write_report

    _apply_sweep_flags(args)
    names = args.experiments if args.experiments else None
    path = write_report(args.out, names)
    print(f"wrote {path}")
    return 0


def _cmd_fsck(args) -> int:
    """Integrity-scan (and optionally repair) durable artifact logs."""
    from .resilience.store import DurableLog, verify_log

    damaged = 0
    for path in args.paths:
        if args.repair:
            _, report = DurableLog(path).recover()
        else:
            report = verify_log(path)
        print(report.summary())
        for note in report.notes:
            print(f"  {note}")
        if not report.clean:
            damaged += 1
    return EXIT_FINDINGS if damaged else EXIT_OK


def _cmd_sweep(args) -> int:
    from .compiler.options import parse_options_string
    from .sweep import OPTION_VARIANTS, SweepSpec, run_sweep, summarize_trace

    if args.options is not None and args.variants != "all":
        print(
            "error: --options and --variants are mutually exclusive",
            file=sys.stderr,
        )
        return 2
    if args.options is not None:
        try:
            variants = {"custom": parse_options_string(args.options)}
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    elif args.variants == "all":
        variants = dict(OPTION_VARIANTS)
    else:
        variants = {}
        for name in args.variants.split(","):
            name = name.strip()
            if name not in OPTION_VARIANTS:
                print(
                    f"error: unknown option variant {name!r}; known: "
                    f"{', '.join(OPTION_VARIANTS)}",
                    file=sys.stderr,
                )
                return 2
            variants[name] = OPTION_VARIANTS[name]
    if args.machine is not None:
        from .machines import resolve_machines

        base_configs = {
            d.name: d.config for d in resolve_machines(args.machine)
        }
    else:
        base_configs = {"base": DEFAULT_CONFIG}
    configs = {}
    for tag, config in base_configs.items():
        if args.max_cycles is not None:
            config = config.with_cycle_budget(args.max_cycles)
        configs[tag] = config
    names = tuple(args.kernels) if args.kernels else workload_names()
    for name in names:
        workload(name)  # fail fast on unknown workloads
    result = run_sweep(
        SweepSpec.build(names, variants=variants, configs=configs),
        jobs=args.jobs,
        timeout=args.timeout,
        retries=args.retries,
        deadline_s=args.deadline,
        checkpoint=args.checkpoint,
        trace=args.trace,
    )
    print(result.table())
    if args.out:
        from .resilience.store import atomic_write_text

        atomic_write_text(args.out, result.results_jsonl())
        print(f"wrote {args.out}")
    # The operator summary is computed from the emitted JSONL trace
    # (read back from disk when --trace was given); it carries timing,
    # so it goes to stderr and stdout stays deterministic.
    summary = (
        summarize_trace(args.trace) if args.trace
        else result.summary()
    )
    print(summary, file=sys.stderr)
    # Deterministic per-cell errors (e.g. a variant that cannot
    # compile a kernel) are reported as results; only infrastructure
    # failures (crashes/timeouts past the retry budget, blown sweep
    # deadlines) fail the sweep.
    crashed = any(o.status == "failed" for o in result.outcomes)
    return EXIT_INFRASTRUCTURE if crashed else EXIT_OK


def _cmd_run(args) -> int:
    from .compiler import DEFAULT_OPTIONS

    description = _machine_description(args)
    config = DEFAULT_CONFIG if description is None \
        else description.config
    options = DEFAULT_OPTIONS
    if description is not None:
        from .machines import tuned_options

        options = tuned_options(options, config)
    spec = kernel(args.kernel)
    if args.lint:
        from .analysis import Severity

        findings = _lint_findings(spec)
        errors = [
            f for f in findings if f.severity >= Severity.ERROR
        ]
        for finding in errors:
            print(finding.format(), file=sys.stderr)
        if errors:
            print(
                f"error: {spec.name}: {len(errors)} lint error(s); "
                "refusing to simulate",
                file=sys.stderr,
            )
            return 1
    if args.profile:
        clear_caches()
        t0 = time.perf_counter()
        compiled = compile_spec(spec, options)
        t1 = time.perf_counter()
        run = run_kernel(
            spec, options, config=config, compiled=compiled,
            verify=not args.no_verify,
        )
        t2 = time.perf_counter()
        macs_bound(compiled.program)
        t3 = time.perf_counter()
    else:
        run = run_kernel(spec, options, config=config,
                         verify=not args.no_verify)
    result = run.result
    print(f"kernel          : {run.spec.name} ({run.spec.title})")
    if description is not None:
        print(f"machine         : {description.name} "
              f"({description.summary()})")
    print(f"cycles          : {result.cycles:.0f}")
    print(f"instructions    : {result.instructions_executed}")
    print(f"vector ops      : {result.vector_instructions}")
    print(f"flops           : {result.flops}")
    print(f"CPL             : {run.cpl():.3f}")
    print(f"CPF             : {run.cpf():.3f}")
    print(f"MFLOPS          : {result.mflops:.2f}")
    if not args.no_verify:
        print("outputs verified against the NumPy reference")
    if args.profile:
        print("profile:")
        print(f"  compile         : {1e3 * (t1 - t0):8.2f} ms")
        print(f"  simulate        : {1e3 * (t2 - t1):8.2f} ms")
        print(f"  model (MACS)    : {1e3 * (t3 - t2):8.2f} ms")
    return 0


def _cmd_serve(args) -> int:
    """Run the batching analysis server until SIGTERM drains it."""
    from .service import ServiceConfig, serve

    host = args.host
    if args.socket is None and host is None:
        host = "127.0.0.1"
    config = ServiceConfig(
        socket_path=args.socket,
        host=host,
        port=args.port,
        workers=args.workers,
        queue_limit=args.queue_limit,
        client_limit=args.client_limit,
        cache_max=args.cache_max,
        default_deadline_s=args.deadline,
        job_timeout_s=args.job_timeout,
        retries=args.retries,
        shard_id=args.shard_id,
        l2_path=args.l2,
        lease_ttl_s=args.lease_ttl,
    )

    def announce(server) -> None:
        for endpoint in server.endpoints:
            print(f"listening on {endpoint}", flush=True)

    return serve(config, announce=announce)


def _cmd_request(args) -> int:
    """Send one request to an analysis server (or execute offline)."""
    import json as _json

    from .service.client import ServiceClient, offline_response
    from .service.protocol import ProtocolError

    kind = args.kind_flag or args.kind
    if kind is None:
        print("error: request needs a kind (positional or --kind)",
              file=sys.stderr)
        return EXIT_USAGE
    if (args.kind is not None and args.kind_flag is not None
            and args.kind != args.kind_flag):
        print(
            f"error: conflicting kinds {args.kind!r} and "
            f"--kind {args.kind_flag!r}",
            file=sys.stderr,
        )
        return EXIT_USAGE

    params: dict = {}
    if args.params:
        try:
            loaded = _json.loads(args.params)
        except _json.JSONDecodeError as exc:
            print(f"error: --params is not valid JSON: {exc}",
                  file=sys.stderr)
            return EXIT_USAGE
        if not isinstance(loaded, dict):
            print("error: --params must be a JSON object",
                  file=sys.stderr)
            return EXIT_USAGE
        params.update(loaded)
    if args.kernel is not None:
        params["kernel"] = args.kernel
    if args.variant is not None:
        params["variant"] = args.variant
    if args.options is not None:
        params["options"] = args.options
    if args.n is not None:
        params["n"] = args.n
    if args.machine is not None:
        params["machine"] = args.machine
    if args.max_cycles is not None:
        params["max_cycles"] = args.max_cycles

    try:
        if args.offline:
            response = offline_response(kind, params)
        else:
            if args.endpoint is None:
                print(
                    "error: request needs an --endpoint "
                    "(unix:/path or tcp:host:port), or --offline",
                    file=sys.stderr,
                )
                return EXIT_USAGE
            with ServiceClient(args.endpoint,
                               timeout=args.timeout) as client:
                response = client.request(
                    kind, params, deadline_s=args.deadline
                )
    except ProtocolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ExperimentError as exc:
        # Transport-level failure: the server is unavailable.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SERVER

    if args.json:
        envelope = {
            "id": response.id,
            "status": response.status,
            "kind": response.kind,
            "key": response.key,
            "origin": response.origin,
            "body": response.body,
        }
        if response.error:
            envelope["error"] = response.error
        print(_json.dumps(envelope, indent=2, sort_keys=True))
    else:
        print(response.render())
    return response.exit_code


def _cmd_machines(args) -> int:
    """List, validate, or show declarative machine descriptions."""
    from .errors import MachineFileError
    from .machines import (
        builtin_machine,
        builtin_names,
        load_machine_file,
    )

    if args.machines_command == "list":
        from .experiments.formatting import TextTable

        table = TextTable(["name", "digest", "summary"])
        for name in builtin_names():
            description = builtin_machine(name)
            table.add_row(
                name, description.digest, description.summary()
            )
        print(table.render())
        return 0

    # machines validate [paths...]
    failures = 0
    if args.paths:
        targets = [(p, lambda p=p: load_machine_file(p))
                   for p in args.paths]
    else:
        targets = [(n, lambda n=n: builtin_machine(n))
                   for n in builtin_names()]
    for label, load in targets:
        try:
            description = load()
        except MachineFileError as exc:
            print(f"FAIL {label}: {exc}", file=sys.stderr)
            failures += 1
            continue
        print(
            f"ok   {label}: {description.name} "
            f"[{description.digest}] {description.summary()}"
        )
    if failures:
        print(f"{failures} machine file(s) failed validation",
              file=sys.stderr)
        return EXIT_FINDINGS
    return EXIT_OK


def _cmd_fleet(args) -> int:
    """The replica fleet and its traffic-replay harness."""
    import tempfile

    from .fleet import replay as traffic
    from .fleet.fabric import Fleet
    from .resilience.store import atomic_write_text

    if args.fleet_command == "record":
        frames = traffic.make_zipf_frames(
            args.frames, args.seed, s=args.skew
        )
        traffic.record_burst(args.out, frames)
        print(f"recorded {len(frames)} frames -> {args.out}")
        return 0

    # fleet replay
    if args.burst is not None:
        frames = traffic.load_burst(args.burst)
    else:
        frames = traffic.make_zipf_frames(
            args.frames, args.seed, s=args.skew
        )
    with tempfile.TemporaryDirectory(prefix="macs-fleet-") as tmp:
        root = args.root if args.root is not None else tmp
        fleet = Fleet(
            root, args.replicas, mode=args.mode,
            workers=args.workers,
        ).start()
        try:
            report = traffic.replay_frames(
                frames, fleet.client, jobs=args.jobs
            )
            shards = fleet.fleet_metrics()
        finally:
            fleet.stop()

    print(
        f"replayed {report.frames} frames on {args.replicas} "
        f"replica(s) x {report.jobs} lane(s): "
        f"{report.elapsed_s:.3f}s "
        f"({report.throughput_rps:.0f} req/s)"
    )
    origins = ", ".join(
        f"{name}={count}"
        for name, count in sorted(report.origin_counts().items())
    )
    print(f"  origins: {origins}")
    for name in sorted(shards):
        counters = shards[name].get("shards", {}).get(name, {})
        line = ", ".join(
            f"{key}={value}"
            for key, value in sorted(counters.items())
        )
        print(f"  {name}: {line or 'idle'}")
    if report.errors:
        print(f"  transport failures: {len(report.errors)}")

    if args.out is not None:
        atomic_write_text(args.out, "\n".join(report.bodies) + "\n")
        print(f"  bodies -> {args.out}")

    if args.no_verify:
        return 0
    mismatches = traffic.verify_replay(frames, report)
    if mismatches:
        print(
            f"BYTE-IDENTITY FAILED: {len(mismatches)} of "
            f"{report.frames} bodies diverge from the offline "
            "oracle",
            file=sys.stderr,
        )
        first = mismatches[0]
        print(
            f"  first: frame {first['frame']} "
            f"({first['request']}) status={first['status']}",
            file=sys.stderr,
        )
        return 1
    print(
        f"  byte-identity: OK ({report.frames} bodies match the "
        "offline oracle)"
    )
    return 0


class _Parser(argparse.ArgumentParser):
    """Takes long options only in full (``--cache`` is not ``--cache-max``);
    ``add_subparsers`` makes every subcommand parser one of these."""

    def __init__(self, *args, **kwargs):
        kwargs.setdefault("allow_abbrev", False)
        super().__init__(*args, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="macs-repro",
        description=(
            "MACS hierarchical performance modeling "
            "(Boyd & Davidson, ISCA 1993) reproduction"
        ),
    )
    parser.add_argument(
        "--chaos", default=None, metavar="PLAN.json",
        help="arm a fault-injection plan for the whole invocation "
        "(see docs/robustness.md for the plan schema)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments and kernels")

    def add_parallel_flags(command) -> None:
        command.add_argument(
            "--jobs", type=int, default=1, metavar="N",
            help="worker processes for kernel sweeps (default 1)",
        )
        command.add_argument(
            "--trace", default=None, metavar="PATH",
            help="write a JSONL telemetry trace to PATH",
        )

    def add_machine_flag(command) -> None:
        command.add_argument(
            "--machine", default=None, metavar="NAME|PATH",
            help="target machine: a built-in name (see 'machines "
            "list'), a machine-file path, a comma list, or 'all' "
            "where an axis makes sense (default: the C-240)",
        )

    experiment = sub.add_parser(
        "experiment", help="regenerate a paper table/figure"
    )
    experiment.add_argument("name", help="experiment name, or 'all'")
    add_parallel_flags(experiment)
    add_machine_flag(experiment)
    experiment.add_argument(
        "--kernels", default=None, metavar="NAMES",
        help="comma-separated kernel set ('experiment rank' only)",
    )

    analyze = sub.add_parser(
        "analyze", help="full MACS hierarchy for one kernel"
    )
    analyze.add_argument("kernel")
    add_machine_flag(analyze)

    machines_cmd = sub.add_parser(
        "machines",
        help="list or validate declarative machine descriptions",
    )
    machines_sub = machines_cmd.add_subparsers(
        dest="machines_command", required=True
    )
    machines_sub.add_parser(
        "list", help="table of built-in machines with content digests"
    )
    machines_validate = machines_sub.add_parser(
        "validate",
        help="parse + schema-check machine files (default: every "
        "built-in)",
    )
    machines_validate.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="machine files to validate (default: the shipped family)",
    )

    compile_cmd = sub.add_parser(
        "compile", help="show a kernel's generated assembly"
    )
    compile_cmd.add_argument("kernel")
    compile_cmd.add_argument(
        "--strict", action="store_true",
        help="fail if the generated code has lint errors",
    )

    lint_cmd = sub.add_parser(
        "lint", help="static dataflow lint of a kernel's assembly"
    )
    lint_cmd.add_argument(
        "kernel", help="workload name, or 'all'"
    )
    lint_cmd.add_argument(
        "--json", action="store_true",
        help="emit findings as JSON",
    )
    lint_cmd.add_argument(
        "--min-severity", default="info",
        help="hide findings below this severity "
        "(info, warning, error)",
    )

    svg_cmd = sub.add_parser(
        "svg", help="write a figure as an SVG document"
    )
    svg_cmd.add_argument("figure", help="figure2 or figure3")
    svg_cmd.add_argument(
        "--out", default=None,
        help="output path (default: <figure>.svg)",
    )

    report_cmd = sub.add_parser(
        "report", help="regenerate everything into one markdown report"
    )
    report_cmd.add_argument(
        "--out", default="report.md", help="output path"
    )
    report_cmd.add_argument(
        "experiments", nargs="*",
        help="subset of experiments (default: all)",
    )
    add_parallel_flags(report_cmd)

    sweep_cmd = sub.add_parser(
        "sweep",
        help="batch-simulate a (workload x options) grid in parallel",
    )
    sweep_cmd.add_argument(
        "kernels", nargs="*",
        help="workloads to sweep (default: all of them)",
    )
    add_parallel_flags(sweep_cmd)
    sweep_cmd.add_argument(
        "--variants", default="all", metavar="NAMES",
        help="comma-separated option-variant names (default: all six)",
    )
    sweep_cmd.add_argument(
        "--options", default=None, metavar="KV",
        help="custom compiler options as 'key=value,...' "
        "(mutually exclusive with --variants)",
    )
    sweep_cmd.add_argument(
        "--out", default=None, metavar="PATH",
        help="write deterministic results JSONL to PATH",
    )
    sweep_cmd.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="append completed cells to PATH and skip them on re-run",
    )
    sweep_cmd.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-task timeout (parallel mode; default: none)",
    )
    sweep_cmd.add_argument(
        "--retries", type=int, default=2, metavar="N",
        help="retry budget per task for crashes/timeouts (default 2)",
    )
    sweep_cmd.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget for the whole sweep; work remaining "
        "at expiry fails with a typed BudgetExceededError",
    )
    sweep_cmd.add_argument(
        "--max-cycles", type=float, default=None, metavar="CYCLES",
        help="per-cell simulated-cycle ceiling (watchdog; default: "
        "none)",
    )
    add_machine_flag(sweep_cmd)

    fsck_cmd = sub.add_parser(
        "fsck",
        help="integrity-scan durable artifact logs "
        "(checkpoints, traces, results)",
    )
    fsck_cmd.add_argument(
        "paths", nargs="+", metavar="PATH",
        help="record logs to scan",
    )
    fsck_cmd.add_argument(
        "--repair", action="store_true",
        help="truncate torn tails and quarantine corrupt records "
        "instead of only reporting them",
    )

    serve_cmd = sub.add_parser(
        "serve",
        help="run the batching analysis server (NDJSON over a "
        "UNIX or TCP socket)",
    )
    serve_cmd.add_argument(
        "--socket", default=None, metavar="PATH",
        help="listen on a UNIX socket at PATH",
    )
    serve_cmd.add_argument(
        "--host", default=None, metavar="HOST",
        help="listen on TCP HOST (default 127.0.0.1 when no --socket)",
    )
    serve_cmd.add_argument(
        "--port", type=int, default=0, metavar="PORT",
        help="TCP port (default 0 = ephemeral, announced on stdout)",
    )
    serve_cmd.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="persistent worker processes (default 1)",
    )
    serve_cmd.add_argument(
        "--queue-limit", type=int, default=64, metavar="N",
        help="max computations queued-or-running before admission "
        "control rejects new leaders (default 64)",
    )
    serve_cmd.add_argument(
        "--client-limit", type=int, default=8, metavar="N",
        help="max in-flight requests per connection (default 8)",
    )
    serve_cmd.add_argument(
        "--cache-max", type=int, default=512, metavar="N",
        help="in-memory L1 result-cache entry bound (default 512)",
    )
    serve_cmd.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="default per-request wall-clock budget (default: none)",
    )
    serve_cmd.add_argument(
        "--job-timeout", type=float, default=None, metavar="SECONDS",
        help="per-attempt hang ceiling for worker jobs; a stuck "
        "worker is killed and the job retried (default: none)",
    )
    serve_cmd.add_argument(
        "--retries", type=int, default=2, metavar="N",
        help="retry budget for crashed/hung worker jobs (default 2)",
    )
    serve_cmd.add_argument(
        "--shard-id", default=None, metavar="NAME",
        help="this replica's name in a fleet; labels per-shard "
        "metrics and L2 leases (default: not part of a fleet)",
    )
    serve_cmd.add_argument(
        "--l2", default=None, metavar="DIR",
        help="shared fleet L2 result-store directory "
        "(default: per-replica L1 only)",
    )
    serve_cmd.add_argument(
        "--lease-ttl", type=float, default=5.0, metavar="SECONDS",
        help="shard-owner lease TTL for fleet-wide single-flight "
        "(default 5)",
    )

    fleet_cmd = sub.add_parser(
        "fleet",
        help="run a sharded replica fleet and the deterministic "
        "traffic-replay harness",
    )
    fleet_sub = fleet_cmd.add_subparsers(
        dest="fleet_command", required=True
    )
    fleet_record = fleet_sub.add_parser(
        "record",
        help="record a deterministic Zipf-skewed burst as NDJSON",
    )
    fleet_record.add_argument(
        "--out", required=True, metavar="PATH",
        help="NDJSON corpus destination",
    )
    fleet_replay_cmd = fleet_sub.add_parser(
        "replay",
        help="spin up N replicas, replay a burst, and byte-compare "
        "every body against the serverless oracle",
    )
    fleet_replay_cmd.add_argument(
        "--burst", default=None, metavar="PATH",
        help="recorded NDJSON corpus (default: generate from "
        "--frames/--seed)",
    )
    fleet_replay_cmd.add_argument(
        "--replicas", type=int, default=3, metavar="N",
        help="replica count (default 3)",
    )
    fleet_replay_cmd.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="concurrent client lanes (default 1)",
    )
    fleet_replay_cmd.add_argument(
        "--mode", choices=("thread", "process"), default="thread",
        help="replica isolation: in-process threads (default) or "
        "real server subprocesses",
    )
    fleet_replay_cmd.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="worker processes per replica (default 1)",
    )
    fleet_replay_cmd.add_argument(
        "--root", default=None, metavar="DIR",
        help="fleet runtime directory: sockets + shared L2 "
        "(default: a temporary directory)",
    )
    fleet_replay_cmd.add_argument(
        "--out", default=None, metavar="PATH",
        help="write one canonical body per line (byte-comparable "
        "across runs, replica counts, and --jobs)",
    )
    fleet_replay_cmd.add_argument(
        "--no-verify", action="store_true",
        help="skip the offline byte-identity oracle (timing runs)",
    )
    for command in (fleet_record, fleet_replay_cmd):
        command.add_argument(
            "--frames", type=int, default=200, metavar="N",
            help="generated burst length (default 200)",
        )
        command.add_argument(
            "--seed", type=int, default=1993, metavar="SEED",
            help="burst generator seed (default 1993)",
        )
        command.add_argument(
            "--skew", type=float, default=1.1, metavar="S",
            help="Zipf exponent for key popularity (default 1.1)",
        )

    request_cmd = sub.add_parser(
        "request",
        help="send one request to an analysis server "
        "(or execute it --offline)",
    )
    request_cmd.add_argument(
        "kind", nargs="?", default=None,
        help="request kind: run, bound, mac, ax, lint, analyze, "
        "advise, report, sweep, ping, healthz, metrics, drain",
    )
    request_cmd.add_argument(
        "--kind", dest="kind_flag", default=None, metavar="KIND",
        help="request kind (flag form of the positional)",
    )
    request_cmd.add_argument(
        "--endpoint", default=None, metavar="ADDR",
        help="server endpoint: unix:/path or tcp:host:port",
    )
    request_cmd.add_argument(
        "--offline", action="store_true",
        help="execute the request inline without a server; the "
        "output is byte-identical to the server's for the same "
        "request",
    )
    request_cmd.add_argument(
        "--params", default=None, metavar="JSON",
        help="raw request params as a JSON object",
    )
    request_cmd.add_argument(
        "--kernel", default=None, help="workload name shorthand"
    )
    request_cmd.add_argument(
        "--variant", default=None,
        help="compiler-option variant name shorthand",
    )
    request_cmd.add_argument(
        "--options", default=None, metavar="KV",
        help="compiler options as 'key=value,...' shorthand",
    )
    request_cmd.add_argument(
        "--n", type=int, default=None, metavar="N",
        help="problem-size shorthand",
    )
    request_cmd.add_argument(
        "--machine", default=None, metavar="NAME",
        help="target machine by built-in name (names only over the "
        "wire; the server resolves them against its own registry)",
    )
    request_cmd.add_argument(
        "--max-cycles", type=float, default=None, metavar="CYCLES",
        help="simulated-cycle watchdog budget for this request",
    )
    request_cmd.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="wall-clock deadline for this request",
    )
    request_cmd.add_argument(
        "--timeout", type=float, default=30.0, metavar="SECONDS",
        help="client socket timeout (default 30)",
    )
    request_cmd.add_argument(
        "--json", action="store_true",
        help="print the full response envelope as JSON",
    )

    run_cmd = sub.add_parser("run", help="simulate one kernel")
    run_cmd.add_argument("kernel")
    run_cmd.add_argument(
        "--no-verify", action="store_true",
        help="skip output verification",
    )
    run_cmd.add_argument(
        "--lint", action="store_true",
        help="lint the generated code first; fail on lint errors",
    )
    run_cmd.add_argument(
        "--profile", action="store_true",
        help="report per-phase wall time",
    )
    add_machine_flag(run_cmd)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "command", None) == "svg" and args.out is None:
        args.out = f"{args.figure}.svg"
    handlers = {
        "list": _cmd_list,
        "svg": _cmd_svg,
        "report": _cmd_report,
        "experiment": _cmd_experiment,
        "analyze": _cmd_analyze,
        "compile": _cmd_compile,
        "lint": _cmd_lint,
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "machines": _cmd_machines,
        "fsck": _cmd_fsck,
        "serve": _cmd_serve,
        "request": _cmd_request,
        "fleet": _cmd_fleet,
    }
    try:
        if args.chaos:
            from .resilience import faults as _faults

            plan = _faults.FaultPlan.load(args.chaos)
            with _faults.chaos(plan):
                return handlers[args.command](args)
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":
    raise SystemExit(main())

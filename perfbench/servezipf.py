"""``serve-zipf``: a seeded Zipf burst against one fresh ``serve`` replica.

Set-up builds the burst and its oracle bodies in the benchmark process,
before any replica exists, so their warm memos never reach the server.
Each pass then starts a fresh ``macs-repro serve`` replica (one worker,
a shard id, an empty shared L2, and an L1 smaller than the burst's
distinct keys) through the CLI and drives it from one closed-loop
:class:`~repro.fleet.client.FleetClient`, so one request is in flight
at a time.  Every body is byte-compared with the oracle.

One lane, because the host has two CPUs: with two lanes the client, the
replica's frontend and its worker all wanted a CPU at once, and the
scheduler, not the program, set the round trips.

The replica is started with the ``serve`` command rather than
``Fleet(mode="process")``, because ``Fleet._spawn_process`` does not
pass ``cache_max`` or ``job_timeout_s`` on: the L1 would stay at its
512-entry default and the L2 would never be read.
"""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
import threading
import time

import common

FRAMES = 6000
KINDS = ("advise", "bound", "run", "lint", "analyze")
ORIGINS = ("cache", "computed")
#: the burst alone gives the p99 ten samples beyond it
MIN_PASSES = 1
#: per-layer metric prefixes of layers this workload never calls
UNREACHED = ("experiments.",)


def _setup(seed: int):
    """The burst, its oracle bodies and its distinct-key count.

    Each kind gets its own Zipf burst of an equal share of the frames,
    and the shares are shuffled together.  One Zipf over all kinds lets
    the seed decide which kinds are hot, and the kinds' bodies differ
    enough in size to move the median round trip by 15% between seeds.
    """
    sys.path.insert(0, str(common.SRC))
    from repro.fleet.replay import make_zipf_frames, oracle_bodies
    from repro.service.protocol import canonicalize

    frames = []
    for index, kind in enumerate(KINDS):
        frames += make_zipf_frames(FRAMES // len(KINDS),
                                   seed * len(KINDS) + index, kinds=(kind,))
    random.Random(seed).shuffle(frames)
    oracle = oracle_bodies(frames)
    distinct = len({canonicalize(f["kind"], dict(f["params"])).key
                    for f in frames})
    return frames, oracle, distinct


def _replay(endpoint, frames) -> tuple[list, dict]:
    """Send the frames in order, each once the previous one's reply has
    come; return one sample per frame and the client's counters.

    Each sample is (round trip ms, status, origin, body, start).  A
    request that raises, a transport error included, is recorded as a
    sample whose status names the exception, so it fails the oracle
    check."""
    from repro.fleet.client import FleetClient

    client = FleetClient({"r0": endpoint})
    samples = []
    try:
        for frame in frames:
            t0 = time.perf_counter()
            try:
                response = client.request(frame["kind"],
                                          dict(frame["params"]))
            except Exception as exc:  # noqa: BLE001 - a failed frame
                samples.append((1e3 * (time.perf_counter() - t0),
                                f"raised {type(exc).__name__}", "", "", t0))
                continue
            samples.append((1e3 * (time.perf_counter() - t0),
                            response.status, response.origin,
                            response.canonical_text(), t0))
    finally:
        client.close()
    return samples, client.stats()


def _vm_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


class _Replica:
    """One ``serve`` replica: started on entry, drained on exit."""

    def __init__(self, args, passdir, cache_max: int, spans=None):
        serve = ["serve", "--host", "127.0.0.1", "--port", "0",
                 "--workers", "1", "--shard-id", "r0",
                 "--l2", str(passdir / "l2"), "--cache-max", str(cache_max)]
        if spans is None:
            self.argv = [sys.executable, "-m", "repro", *serve]
        else:
            self.argv = [sys.executable, str(common.BENCH_DIR / "tracer.py"),
                         str(spans), *serve]
        self.seed = args.seed
        self.passdir = passdir
        self.exit_code: int | None = None

    def __enter__(self) -> "_Replica":
        t0 = time.perf_counter()
        self.proc = common.spawn(self.argv, common.child_env(self.seed),
                                 self.passdir, stdout=subprocess.PIPE,
                                 text=True)
        self._drain = threading.Thread(target=self.proc.stdout.read,
                                       daemon=True)
        try:
            with common.deadline(self.proc, seconds=60):
                line = self.proc.stdout.readline()
            #: from start to the listening line, on the perf_counter clock
            self.started = (t0, time.perf_counter())
            if not line.startswith("listening on "):
                raise RuntimeError(f"replica did not start: {line!r}")
        except BaseException:
            self.__exit__()
            raise
        self.endpoint = line.split()[-1]
        self._drain.start()
        return self

    def __exit__(self, *exc_info) -> None:
        try:
            os.kill(self.proc.pid, signal.SIGTERM)  # graceful drain
        except ProcessLookupError:
            pass
        self.exit_code, _ = common.reap(self.proc, timeout=30)
        if self._drain.is_alive():
            self._drain.join(timeout=5)
        self.proc.stdout.close()


def _start(args, passdir, cache_max) -> tuple[float, float]:
    """Start a replica and stop it; return the interval from its start
    to its listening line."""
    with _Replica(args, passdir, cache_max) as replica:
        pass
    if replica.exit_code != 0:
        raise RuntimeError(f"replica exited with {replica.exit_code}")
    return replica.started


def _one_pass(args, frames, cache_max, passdir, tracing, index):
    """Start a replica, replay the burst, stop it; return what it saw,
    with the samples in the burst's own order.

    Every pass sends the same frames, in an order drawn from the seed and
    the pass index, so a run's tail pools several orders.  With one order
    per seed, the p99 round trip spread by 0.12 of its median across five
    seeds, against 0.06 for one seed run three times.
    """
    order = list(range(len(frames)))
    random.Random(f"{args.seed}/{index}").shuffle(order)
    spans = None
    if tracing:
        spans = passdir / "spans"
        spans.mkdir()
    with _Replica(args, passdir, cache_max, spans) as replica:
        t_burst = time.perf_counter()
        with common.deadline(replica.proc, seconds=100):
            sent, stats = _replay(replica.endpoint,
                                  [frames[i] for i in order])
        burst = (t_burst, time.perf_counter())
        from repro.service.client import ServiceClient

        with ServiceClient(replica.endpoint) as client:
            server = client.metrics()
        rss_mb = _vm_hwm_mb(replica.proc.pid)
    samples = [None] * len(frames)
    for position, frame_index in enumerate(order):
        samples[frame_index] = sent[position]
    return {"start": replica.started, "burst": burst, "samples": samples,
            "server": server, "client": stats, "rss_mb": rss_mb,
            "exit": replica.exit_code}


def _check(frames, oracle, result, outcome) -> None:
    from repro.fleet.replay import ReplayReport, verify_replay

    samples = result["samples"]
    report = ReplayReport(
        jobs=1, elapsed_s=result["burst"][1] - result["burst"][0],
        bodies=[s[3] for s in samples], statuses=[s[1] for s in samples],
        origins=[s[2] for s in samples],
    )
    mismatches = verify_replay(frames, report, oracle)
    outcome.attempted += len(frames)
    for mismatch in mismatches:
        outcome.fail(f"frame {mismatch['frame']} "
                     f"({mismatch['request']['kind']}): status "
                     f"{mismatch['status']}, body differs from oracle")
    if result["exit"] != 0:
        outcome.fail(f"replica exited with {result['exit']}")


def _service_metrics(plain: list[dict], kinds: list[str]) -> dict[str, float]:
    """Client round trips by kind and origin, server-side latency and
    the replica's and clients' counters, over the untraced passes.

    A latency with no samples behind it is left out, not reported as 0.
    """
    layer: dict[str, float] = {}
    samples = [s for result in plain for s in result["samples"]]
    by: dict[tuple, list] = {}
    for result in plain:
        for kind, sample in zip(kinds, result["samples"]):
            by.setdefault((kind, sample[2]), []).append(sample[0])
    for kind in KINDS:
        for origin in ORIGINS:
            if (kind, origin) in by:
                layer[f"service.rtt_ms.{kind}.{origin}.p50"] = (
                    common.median(by[kind, origin]))
        if (kind, "cache") in by:
            layer[f"service.rtt_ms.{kind}.cache.p99"] = (
                common.percentile(by[kind, "cache"], 99))
        server_p50 = [result["server"]["latency_ms"][kind]["p50_ms"]
                      for result in plain
                      if kind in result["server"]["latency_ms"]]
        if server_p50:
            layer[f"service.server_ms.{kind}.p50"] = (
                common.median(server_p50))
    hits = [s[0] for s in samples if s[2] == "cache"]
    if hits:
        layer["service.hit_p99_ms"] = common.percentile(hits, 99)
    passes = len(plain)

    def mean(values) -> float:
        return sum(values) / passes

    servers = [result["server"] for result in plain]
    for name in ("computed", "coalesced", "static_answers", "rejections",
                 "errors"):
        layer[f"service.{name}"] = mean(server[name] for server in servers)
    requests = sum(sum(count for kind, count in server["requests"].items()
                       if kind in KINDS) for server in servers)
    layer["service.hit_ratio"] = (
        sum(server["cache_hits"] for server in servers) / requests)
    for name in ("l1_hits", "l2_hits"):
        # a shard counter that never counted is absent from the summary
        layer[f"fleet.{name}"] = mean(server["shards"]["r0"].get(name, 0)
                                      for server in servers)
    for name in ("failovers", "rejected_retries"):
        layer[f"fleet.{name}"] = mean(result["client"][name]
                                      for result in plain)
    return layer


def run(args, outcome: common.Outcome, workdir, speed) -> None:
    frames, oracle, distinct = _setup(args.seed)
    kinds = [frame["kind"] for frame in frames]
    cache_max = distinct // 2
    # wall-clock intervals, scaled to the reference host once timed
    starts, plain, traced = [], [], []
    start = time.perf_counter()
    while ((len(plain) < MIN_PASSES or (args.trace and not traced))
           and outcome.attempted < 4 * FRAMES
           or time.perf_counter() - start < args.seconds):
        tracing = bool(args.trace) and (len(plain) + len(traced)) % 2 == 1
        index = len(plain) + len(traced)
        passdir = workdir / f"pass{index}"
        (passdir / "start").mkdir(parents=True)
        starts.append(_start(args, passdir / "start", cache_max))
        result = _one_pass(args, frames, cache_max, passdir, tracing, index)
        if not tracing:
            starts.append(result["start"])
        result["passdir"] = passdir
        _check(frames, oracle, result, outcome)
        (traced if tracing else plain).append(result)
    walls = [r["burst"][1] - r["burst"][0] for r in plain]
    scales = speed.factors(r["burst"] for r in plain)
    burst = [scale * wall for scale, wall in zip(scales, walls)]
    # each round trip scaled by the host's speed around it
    samples = [s for r in plain for s in r["samples"]]
    rtts = [1e3 * rtt for rtt in
            speed.seconds((s[4], s[4] + s[0] / 1e3) for s in samples)]
    hits = [rtt for rtt, s in zip(rtts, samples) if s[2] == "cache"]
    starts = speed.seconds(starts)
    outcome.put("setup_s", common.median(starts), "s", len(starts),
                "serve start until its listening line, twice a pass")
    outcome.put("pass_s", common.median(burst), "s", len(burst),
                f"{FRAMES}-frame burst")
    outcome.put("op_p50_ms", common.median(rtts), "ms", len(rtts),
                "client round trip")
    tail = common.tail_percentile(FRAMES * MIN_PASSES)
    outcome.put("op_tail_ms", common.percentile(rtts, tail), "ms",
                len(rtts), f"p{tail:g}")
    outcome.put("peak_rss_mb", common.median(r["rss_mb"] for r in plain),
                "MB", len(plain), "replica VmHWM")
    service = _service_metrics(plain, kinds)
    outcome.put("req_p50_ms", outcome.metrics["op_p50_ms"].value, "ms",
                len(rtts), "= op_p50_ms")
    outcome.put("req_p99_ms", outcome.metrics["op_tail_ms"].value, "ms",
                len(rtts), "= op_tail_ms")
    if hits:
        outcome.put("hit_p99_ms", common.percentile(hits, 99), "ms",
                    len(hits), "p99 of cache-origin round trips")
    outcome.put("throughput_rps", FRAMES / common.median(burst), "1/s",
                len(burst), f"{FRAMES} / pass_s")
    common.put_host_speed(outcome, walls, scales)
    outcome.info["burst"] = (
        f"{FRAMES} frames, {distinct} distinct keys, L1 cap {cache_max}")
    if args.trace:
        import tracer

        spans = []
        for result in traced:
            spans += tracer.read_spans(result["passdir"] / "spans")
        outcome.layer = tracer.layer_metrics(spans, len(traced))
        outcome.layer.update(service)
        outcome.layer["trace.overhead_ratio"] = common.median(
            speed.seconds(r["burst"] for r in traced)) / common.median(burst)

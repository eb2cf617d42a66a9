"""The asyncio analysis server (``macs-repro serve``).

Architecture::

    clients ──NDJSON──▶ connection read loop ──▶ L1 memo ──▶ shared L2
                        (one synchronous step    (body bytes; warm
                         per frame: control,      hits end here)
                         usage errors,         ──▶ admission control
                         rejections, hits)     ──▶ single-flight table
                                  │            ──▶ WorkerPool (processes)
                                  │            ──▶ publish to L2
                                  ▼
                        one task per cold frame: awaits its flight,
                        writes its reply

The frontend owns everything non-deterministic — sockets, queueing,
deadlines, metrics — and computes nothing: every cold compute request,
``advise`` included, is a job for the deterministic worker entry point
(:func:`repro.service.jobs.execute_request`), so a body is
byte-identical whether it was computed, coalesced, cached, or produced
offline by the client library.  The L1 holds each body as its
canonical bytes, encoded once when the body enters it, and every ``ok``
reply splices those bytes into its envelope
(:func:`~repro.service.protocol.splice_line`).

Operational behavior:

* **admission control** — a bounded computation queue and per-client
  in-flight limits; refusals are typed ``rejected`` responses with
  ``retry_after_s`` (see :mod:`repro.service.admission`);
* **single-flight** — concurrent identical requests (same content
  digest) trigger exactly one worker job
  (:mod:`repro.service.singleflight`);
* **shared L2** — with ``l2_path`` a cold frame probes the fleet's
  L2 (:mod:`repro.fleet.store`) at dispatch, and a computed body is
  published there after its job.  A replica never waits on another:
  owner routing (:mod:`repro.fleet.client`) keeps a key on one
  replica, and two replicas that do compute it publish the same
  bytes;
* **deadlines** — per-request ``deadline_s`` (or the server default)
  bounds the wall clock via :class:`repro.resilience.watchdog.Deadline`
  semantics; expiry is a typed ``budget`` error, and the underlying
  computation still completes into the cache.  Per-request
  ``max_cycles`` rides into the simulator's existing
  ``MachineConfig.cycle_budget`` watchdog;
* **graceful drain** — SIGTERM (or a ``drain`` request) stops the
  listeners, lets every in-flight request finish and respond, shuts
  the pool down, and exits cleanly;
* **fault sites** — ``service.accept`` (a connection dropped at
  accept) is chaos-injectable; worker crashes are retried by the
  pool's :class:`~repro.resilience.retry.RetryPolicy` without the
  client ever seeing an error, and a crash is charged only to a job
  that was alone in the pool (:mod:`repro.sweep.pool`).

Fork hygiene: worker processes are forked from the serving process and
start in one place, the pool's worker initializer
(:mod:`repro.sweep.pool`).  It points every inherited socket (the
listeners, every connection, asyncio's self-pipe) at ``/dev/null`` and
unhooks the signal wakeup, so a worker never holds a connection open
and a signal sent to it never drains the server; a SIGTERM ends just
that worker, which the pool replaces.  The armed chaos
plan, the telemetry collector and every memo (the L1 included) are
dropped by their own modules' fork hooks.  A worker exits by itself
once the server is gone.
"""

from __future__ import annotations

import asyncio
import os
import signal
import threading
import time
from collections.abc import Coroutine
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from ..errors import ExperimentError
from ..memo import Memo
from ..resilience import faults as _faults
from ..resilience.retry import RetryPolicy
from ..sweep.pool import WorkerPool
from .admission import AdmissionController
from .jobs import execute_request
from .metrics import ServiceMetrics
from .protocol import (
    CONTROL_KINDS,
    ProtocolError,
    Request,
    canonicalize,
    decode_line,
    encode_body,
    encode_line,
    error_response,
    frame_id,
    positive_real,
    splice_line,
)
from .singleflight import SingleFlight

#: Bytes one socket read takes, the longest frame a connection
#: accepts, and bytes a connection's read loop answers before it
#: yields to the other connections.
_READ_SIZE = 64 * 1024

async def _skip_frame(reader: asyncio.StreamReader, read: int) -> None:
    """Discard a frame longer than the reader's limit: the ``read``
    bytes of it that are buffered, then input through its newline."""
    while True:
        await reader.readexactly(read)
        try:
            await reader.readuntil(b"\n")
            return
        except asyncio.LimitOverrunError as exc:
            read = exc.consumed


@dataclass(frozen=True)
class ServiceConfig:
    """Operator-facing server configuration."""

    #: UNIX socket path (preferred for local use) and/or TCP endpoint.
    socket_path: str | None = None
    host: str | None = None
    port: int = 0  # 0 = ephemeral (reported on stdout)
    workers: int = 1
    queue_limit: int = 64
    client_limit: int = 8
    #: L1 result-memo entry bound
    cache_max: int = 512
    #: default per-request wall-clock budget (None = unbounded)
    default_deadline_s: float | None = None
    #: per-attempt hang ceiling for worker jobs (None = unbounded)
    job_timeout_s: float | None = None
    #: crash/hang retry budget for worker jobs
    retries: int = 2
    #: this replica's name in a fleet (None = not part of a fleet);
    #: labels the per-shard metrics dimension
    shard_id: str | None = None
    #: shared L2 result-store directory (None = L1 only)
    l2_path: str | None = None

    def __post_init__(self):
        if self.socket_path is None and self.host is None:
            raise ExperimentError(
                "serve needs a --socket path or a --host/--port "
                "TCP endpoint"
            )


class AnalysisServer:
    """One serving process: frontend + cache + pool."""

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.metrics = ServiceMetrics(shard=config.shard_id)
        #: the L1: each response body's canonical bytes
        #: (:func:`~repro.service.protocol.encode_body`), keyed by the
        #: request's content digest
        self.cache: Memo[str, bytes] = Memo("service.l1",
                                            config.cache_max)
        if config.l2_path is not None:
            from ..fleet.store import SharedL2Store

            self.l2: SharedL2Store | None = SharedL2Store(
                config.l2_path
            )
        else:
            self.l2 = None
        self.admission = AdmissionController(
            queue_limit=config.queue_limit,
            client_limit=config.client_limit,
        )
        self.singleflight = SingleFlight()
        self.pool = WorkerPool(
            workers=config.workers,
            retry=RetryPolicy(retries=config.retries),
            name="service",
        )
        #: the threads that wait on pool jobs, one per admitted leader,
        #: so the pool's ``workers`` is the only bound on jobs running
        self._job_threads = ThreadPoolExecutor(
            max_workers=config.queue_limit,
            thread_name_prefix="service-job",
        )
        self.draining = False
        self.endpoints: list[str] = []
        self._servers: list[asyncio.AbstractServer] = []
        self._writers: set[asyncio.StreamWriter] = set()
        self._conn_counter = 0
        self._conn_tasks: set[asyncio.Task] = set()
        self._flights: set[asyncio.Task] = set()
        self._auto_id = 0
        self._active = 0
        self._drained: asyncio.Event | None = None

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        self._drained = asyncio.Event()
        if self.config.socket_path is not None:
            server = await asyncio.start_unix_server(
                self._handle_client, path=self.config.socket_path,
                limit=_READ_SIZE,
            )
            self._servers.append(server)
            self.endpoints.append(f"unix:{self.config.socket_path}")
        if self.config.host is not None:
            server = await asyncio.start_server(
                self._handle_client, host=self.config.host,
                port=self.config.port, limit=_READ_SIZE,
            )
            self._servers.append(server)
            for sock in server.sockets:
                host, port = sock.getsockname()[:2]
                self.endpoints.append(f"tcp:{host}:{port}")

    def request_drain(self) -> None:
        """Begin a graceful drain (signal handler / drain request)."""
        if self.draining:
            return
        self.draining = True
        for server in self._servers:
            server.close()
        self._maybe_set_drained()

    def _maybe_set_drained(self) -> None:
        # Drained = draining requested, no request in flight, and every
        # client has disconnected — connected clients may still replay
        # cache hits (and collect refusals) until they hang up.
        if self.draining and self._active == 0 \
                and not self._writers and self._drained is not None:
            self._drained.set()

    async def wait_drained(self) -> None:
        """Block until drained, then release every resource."""
        await self._drained.wait()
        for server in self._servers:
            server.close()
            try:
                await server.wait_closed()
            except Exception:
                pass
        for writer in list(self._writers):
            try:
                writer.close()
            except Exception:
                pass
        # Let connection handlers observe EOF and exit before the loop
        # closes, so shutdown never cancels them mid-read.
        if self._conn_tasks:
            await asyncio.wait(list(self._conn_tasks), timeout=2.0)
        # Deadline-orphaned flights may still be computing into the
        # cache; give them a bounded grace, then kill any worker still
        # hung — waiting for a hung job would block for its runtime.
        pending = [task for task in self._flights if not task.done()]
        if pending:
            await asyncio.wait(pending, timeout=5.0)
        stragglers = any(not task.done() for task in self._flights)
        self.pool.shutdown(kill=stragglers)
        self._job_threads.shutdown()
        if self.config.socket_path is not None:
            try:
                os.unlink(self.config.socket_path)
            except OSError:
                pass

    async def drain(self) -> None:
        self.request_drain()
        await self.wait_drained()

    # -- connection handling -------------------------------------------

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        spec = _faults.check("service.accept")
        if spec is not None and spec.kind == "io-error":
            # An accept-path fault: this connection is dropped, the
            # server keeps serving the next one.
            self.metrics.count("accept_faults")
            writer.close()
            return
        # asyncio reads each chunk into a new buffer of the transport's
        # max_size (256 KiB), above glibc's initial mmap threshold, so
        # unless earlier frees happened to raise that threshold, every
        # read maps and unmaps fresh pages.  Requests are single short
        # lines; 64 KiB reads come from the heap.
        writer.transport.max_size = _READ_SIZE
        self._conn_counter += 1
        client_id = f"client-{self._conn_counter}"
        self.metrics.count("connections")
        self._writers.add(writer)
        conn_task = asyncio.current_task()
        if conn_task is not None:
            self._conn_tasks.add(conn_task)
        replies: set[asyncio.Task] = set()
        unyielded = 0
        try:
            while True:
                try:
                    line = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError as exc:
                    line = exc.partial  # the last frame, unterminated
                    if not line:
                        break
                except asyncio.LimitOverrunError as exc:
                    self.metrics.count("errors")
                    writer.write(encode_line(error_response(
                        "", "", "usage",
                        f"request frame longer than {_READ_SIZE} bytes",
                    )))
                    await _skip_frame(reader, exc.consumed)
                    line = b""
                    unyielded = _READ_SIZE  # yield below
                if line.strip():
                    reply = self._answer(line, client_id)
                    if isinstance(reply, bytes):
                        writer.write(reply)
                    else:
                        task = asyncio.create_task(
                            self._write_when_done(writer, reply)
                        )
                        replies.add(task)
                        task.add_done_callback(replies.discard)
                # readuntil returns a buffered line without yielding, and
                # no reply awaits drain (a client that sends a long
                # pipeline before it reads would block on its own unread
                # replies), so a client that pipelines hits would hold
                # the loop: let the other connections run once per
                # read's worth of frames.
                unyielded += len(line)
                if unyielded >= _READ_SIZE:
                    unyielded = 0
                    await asyncio.sleep(0)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            if replies:
                await asyncio.gather(*replies, return_exceptions=True)
            self._writers.discard(writer)
            if conn_task is not None:
                self._conn_tasks.discard(conn_task)
            writer.close()
            self._maybe_set_drained()

    def _answer(self, line: bytes,
                client_id: str) -> bytes | Coroutine[None, None, bytes]:
        """Answer one frame on the read loop, without awaiting.

        Control kinds, ``usage`` errors, rejections and L1/L2 hits
        return their reply line.  A cold frame leads or joins its
        flight and returns the coroutine that awaits the flight and
        returns the reply line; it must be awaited, since it returns
        the frame's admission.
        """
        request_id: str | int = ""
        kind = ""
        try:
            frame = decode_line(line)
            kind = str(frame.get("kind", ""))
            request_id = frame_id(frame)
            if request_id is None:
                request_id = self._next_id()
            if kind in CONTROL_KINDS:
                return encode_line(self._control(request_id, kind))
            request = canonicalize(kind, frame.get("params"))
            deadline_s = frame.get("deadline_s")
            if deadline_s is not None:
                deadline_s = positive_real("deadline_s", deadline_s)
            else:
                deadline_s = request.deadline_s or \
                    self.config.default_deadline_s
            return self._dispatch(request, deadline_s, client_id,
                                  request_id)
        except ProtocolError as exc:
            self.metrics.count("errors")
            envelope = error_response(request_id, kind, "usage",
                                      str(exc))
        except Exception as exc:  # pragma: no cover - safety net
            # A request must always get *a* response; a frontend bug
            # must not strand the client waiting forever.
            self.metrics.count("errors")
            envelope = error_response(request_id, kind,
                                      "infrastructure", str(exc))
        return encode_line(envelope)

    def _next_id(self) -> str:
        self._auto_id += 1
        return f"auto-{self._auto_id}"

    # -- control requests ----------------------------------------------

    def _control(self, request_id: str | int, kind: str) -> dict:
        self.metrics.count(f"requests:{kind}")
        if kind == "ping":
            body = {"pong": True}
        elif kind == "healthz":
            body = {
                "status": "draining" if self.draining else "ok",
                "uptime_s": round(self.metrics.uptime_s, 3),
                "workers": self.config.workers,
                "queue_depth": self.admission.queue_depth,
                "in_flight": self._active,
                "cache_entries": len(self.cache),
            }
        elif kind == "metrics":
            body = self.metrics.snapshot(
                queue_depth=self.admission.queue_depth,
                in_flight=self._active,
                cache_stats=self.cache.stats(),
                workers=self.config.workers,
                worker_restarts=self.pool.restarts,
                draining=self.draining,
            )
            if self.l2 is not None:
                body["l2"] = self.l2.stats()
        else:  # drain
            body = {"draining": True}
            asyncio.get_running_loop().call_soon(self.request_drain)
        return {"id": request_id, "status": "ok", "kind": kind,
                "key": "", "origin": "server", "body": body}

    # -- compute requests ----------------------------------------------

    def _dispatch(self, request: Request, deadline_s: float | None,
                  client_id: str, request_id: str | int
                  ) -> bytes | Coroutine[None, None, bytes]:
        """Hit, refuse, or join a flight: :meth:`_answer` for one valid
        compute request.  Nothing here awaits, so a flight cannot finish
        between the cache miss and the single-flight decision."""
        t0 = time.perf_counter()
        self.metrics.count(f"requests:{request.kind}")
        key = request.key

        # Warm cache: answered without admission, queue, or pool.
        # L1 is this replica's memory; L2 is the fleet's shared
        # directory — an L2 hit is promoted into L1 on the way out.
        body = self.cache.get(key)
        tier = "l1_hits"
        if body is None and self.l2 is not None:
            stored = self.l2.get(key)
            if stored is not None:
                body = encode_body(stored)
                self.cache.put(key, body)
                tier = "l2_hits"
        if body is not None:
            self.metrics.count("cache_hits")
            self.metrics.count_shard(tier)
            return self._ok_line(request, request_id, body, "cache", t0)

        if self.draining:
            self.metrics.count("rejections")
            return encode_line(error_response(
                request_id, request.kind, "unavailable",
                "server is draining; no new computations accepted",
                status="rejected", key=key,
            ))

        leader = self.singleflight.leader(key)
        rejection = self.admission.admit(client_id, leader)
        if rejection is not None:
            self.metrics.count("rejections")
            return encode_line(error_response(
                request_id, request.kind, "busy", rejection.reason,
                status="rejected",
                retry_after_s=rejection.retry_after_s, key=key,
            ))

        self._active += 1
        if leader:
            flight = self.singleflight.begin(key)
            self._track(self._compute_flight(request, key))
            origin = "computed"
        else:
            flight = self.singleflight.join(key)
            self.metrics.count("coalesced")
            self.metrics.count_shard("coalesced")
            origin = "coalesced"
        return self._flight_line(flight, request, request_id,
                                 deadline_s, origin, t0, client_id,
                                 leader)

    def _ok_line(self, request: Request, request_id: str | int,
                 body: bytes, origin: str, t0: float) -> bytes:
        elapsed = 1e3 * (time.perf_counter() - t0)
        self.metrics.observe(request.kind, elapsed)
        return splice_line({
            "elapsed_ms": round(elapsed, 3), "id": request_id,
            "key": request.key, "kind": request.kind,
            "origin": origin, "status": "ok",
        }, body)

    @staticmethod
    async def _write_when_done(
            writer: asyncio.StreamWriter,
            reply: Coroutine[None, None, bytes]) -> None:
        """A cold frame's task: await its reply line, then write it.
        A gone client's transport drops the line; the body is cached
        anyway."""
        writer.write(await reply)

    async def _flight_line(self, flight: asyncio.Future,
                           request: Request, request_id: str | int,
                           deadline_s: float | None, origin: str,
                           t0: float, client_id: str,
                           leader: bool) -> bytes:
        """The reply line of an admitted cold frame, once its flight
        ends or its deadline passes; returns its admission."""
        try:
            if deadline_s is None:
                result = await asyncio.shield(flight)
            else:
                result = await asyncio.wait_for(
                    asyncio.shield(flight), timeout=deadline_s
                )
        except asyncio.TimeoutError:
            self.metrics.count("deadline_expirations")
            return encode_line(error_response(
                request_id, request.kind, "budget",
                f"request deadline ({deadline_s:g}s) exceeded; "
                "the computation continues and will be cached",
                key=request.key,
            ))
        except Exception as exc:
            # ExperimentError: pool retries exhausted.  Anything else
            # is an unexpected worker exception (e.g. an injected
            # deterministic raise) — also infrastructure, and never
            # silently dropped.
            self.metrics.count("errors")
            return encode_line(error_response(
                request_id, request.kind, "infrastructure", str(exc),
                key=request.key,
            ))
        finally:
            self._active -= 1
            self.admission.release(client_id, leader)
            self._maybe_set_drained()
        if isinstance(result, bytes):
            return self._ok_line(request, request_id, result, origin, t0)
        self.metrics.count("errors")
        return encode_line({
            "id": request_id, "status": "error",
            "kind": request.kind, "key": request.key,
            "error": dict(result["error"]),
        })

    def _track(self, coro) -> None:
        """Run ``coro`` as a flight that graceful drain waits for."""
        task = asyncio.create_task(coro)
        self._flights.add(task)
        task.add_done_callback(self._flights.discard)

    async def _compute_flight(self, request: Request,
                              key: str) -> None:
        """Leader-side computation: one pool job per content key.

        The flight resolves to the body's canonical bytes, or to the
        job's error payload."""
        try:
            payload = await asyncio.get_running_loop().run_in_executor(
                self._job_threads, self._run_job, request, key
            )
        except BaseException as exc:
            self.singleflight.finish(key, error=exc)
            return
        if payload["status"] != "ok":
            self.singleflight.finish(key, result=payload)
            return
        body = encode_body(payload["body"])
        self.cache.put(key, body)
        self.singleflight.finish(key, result=body)

    def _run_job(self, request: Request, key: str) -> dict:
        """One pool job, on a request thread.  A body computed here
        counts under ``static_answers`` for ``advise``, ``computed``
        otherwise, and is published to the shared L2 when there is
        one.  Nothing here waits on another replica: if two replicas
        compute one key, both publish the same bytes."""
        payload = self.pool.run(
            execute_request, request.payload,
            key=key, timeout=self.config.job_timeout_s,
        )
        if payload["status"] == "ok":
            counter = (
                "static_answers" if request.kind == "advise"
                else "computed"
            )
            self.metrics.count(counter)
            self.metrics.count_shard(counter)
            if self.l2 is not None:
                self.l2.put(key, request.kind, payload["body"])
        return payload


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


async def _amain(config: ServiceConfig, *,
                 ready=None, install_signals: bool = True,
                 announce=None) -> None:
    server = AnalysisServer(config)
    await server.start()
    if install_signals:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, server.request_drain)
            except (NotImplementedError, RuntimeError, ValueError):
                break  # non-main thread / unsupported platform
    if announce is not None:
        announce(server)
    if ready is not None:
        ready(server)
    await server.wait_drained()


def serve(config: ServiceConfig, announce=None) -> int:
    """Run the server until SIGTERM/SIGINT drains it; returns 0."""
    asyncio.run(
        _amain(config, announce=announce, install_signals=True)
    )
    return 0


class ServerThread:
    """A server running on a background thread (tests, benchmarks)."""

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.server: AnalysisServer | None = None
        self.loop: asyncio.AbstractEventLoop | None = None
        self._ready = threading.Event()
        self._error: BaseException | None = None
        self.thread = threading.Thread(
            target=self._run, name="macs-service", daemon=True
        )

    def _run(self) -> None:
        def ready(server: AnalysisServer) -> None:
            self.server = server
            self.loop = asyncio.get_running_loop()
            self._ready.set()

        try:
            asyncio.run(
                _amain(self.config, ready=ready,
                       install_signals=False)
            )
        except BaseException as exc:  # surfaced by start()/stop()
            self._error = exc
            self._ready.set()

    def start(self) -> "ServerThread":
        self.thread.start()
        self._ready.wait(timeout=30.0)
        if self._error is not None:
            raise ExperimentError(
                f"service failed to start: {self._error}"
            ) from self._error
        if self.server is None:
            raise ExperimentError("service failed to start (timeout)")
        return self

    @property
    def endpoints(self) -> list[str]:
        return list(self.server.endpoints) if self.server else []

    def stop(self, timeout: float = 30.0) -> None:
        if self.loop is not None and self.server is not None:
            try:
                self.loop.call_soon_threadsafe(
                    self.server.request_drain
                )
            except RuntimeError:
                pass  # loop already closed
        self.thread.join(timeout=timeout)


def start_in_thread(config: ServiceConfig) -> ServerThread:
    """Start a server on a daemon thread and wait until it listens."""
    return ServerThread(config).start()

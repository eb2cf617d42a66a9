"""Fleet lifecycle: start, observe, partition, and stop N replicas.

A :class:`Fleet` owns N :class:`~repro.service.server.AnalysisServer`
replicas that share one L2 directory (:mod:`repro.fleet.store`) and
serve disjoint shard arcs of the consistent-hash ring.  Two modes:

* ``mode="thread"`` — each replica is a
  :class:`~repro.service.server.ServerThread` inside this process.
  Cheap and fast to spin up; the default for tests.  Partitioning a
  replica calls :meth:`AnalysisServer.partition` *inside its own event
  loop* (closing listeners and aborting live connections from another
  thread would corrupt the loop's selector state).
* ``mode="process"`` — each replica is a ``python -m repro serve``
  subprocess.  Real process isolation and real parallelism (no shared
  GIL); what the throughput benchmark and the CI fleet job use.
  Partitioning is a SIGKILL; the replica's workers exit by themselves
  once it is gone.

Either way a partitioned replica stays *down* — recovery is a new
replica joining the ring, not a resurrection — and the fleet's shared
L2 keeps the replacement warm.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time

from ..errors import ExperimentError
from ..resilience.retry import RetryPolicy
from ..service.client import ServiceClient
from ..service.server import ServiceConfig, ServerThread
from .client import FleetClient
from .ring import DEFAULT_VNODES


class FleetReplica:
    """One started replica and its handle."""

    def __init__(self, name: str, endpoint: str, *,
                 thread: ServerThread | None = None,
                 process: "subprocess.Popen | None" = None):
        self.name = name
        self.endpoint = endpoint
        self.thread = thread
        self.process = process
        self.partitioned = False

    @property
    def alive(self) -> bool:
        if self.partitioned:
            return False
        if self.process is not None:
            return self.process.poll() is None
        return self.thread is not None and \
            self.thread.thread.is_alive()


class Fleet:
    """N replicas over one shared L2, ready for a FleetClient."""

    def __init__(self, root: str, replicas: int = 3, *,
                 mode: str = "thread", workers: int = 1,
                 queue_limit: int = 256, client_limit: int = 64,
                 cache_max: int = 512, shared_l2: bool = True,
                 job_timeout_s: float | None = None):
        if replicas < 1:
            raise ExperimentError(
                f"a fleet needs >= 1 replica, got {replicas}"
            )
        if mode not in ("thread", "process"):
            raise ExperimentError(
                f"fleet mode must be thread|process, got {mode!r}"
            )
        self.root = root
        self.count = replicas
        self.mode = mode
        self.workers = workers
        self.queue_limit = queue_limit
        self.client_limit = client_limit
        self.cache_max = cache_max
        self.job_timeout_s = job_timeout_s
        self.l2_root = os.path.join(root, "l2") if shared_l2 else None
        self.replicas: dict[str, FleetReplica] = {}

    # -- lifecycle -----------------------------------------------------

    def _socket_path(self, name: str) -> str:
        return os.path.join(self.root, f"{name}.sock")

    def _config(self, name: str) -> ServiceConfig:
        return ServiceConfig(
            socket_path=self._socket_path(name),
            workers=self.workers,
            queue_limit=self.queue_limit,
            client_limit=self.client_limit,
            cache_max=self.cache_max,
            job_timeout_s=self.job_timeout_s,
            shard_id=name,
            l2_path=self.l2_root,
        )

    def _spawn_process(self, name: str) -> FleetReplica:
        socket_path = self._socket_path(name)
        command = [
            sys.executable, "-m", "repro", "serve",
            "--socket", socket_path,
            "--workers", str(self.workers),
            "--queue-limit", str(self.queue_limit),
            "--client-limit", str(self.client_limit),
            "--cache-max", str(self.cache_max),
            "--shard-id", name,
        ]
        if self.job_timeout_s is not None:
            command += ["--job-timeout", str(self.job_timeout_s)]
        if self.l2_root is not None:
            command += ["--l2", self.l2_root]
        env = dict(os.environ)
        src = os.path.join(
            os.path.dirname(os.path.dirname(
                os.path.dirname(os.path.abspath(__file__))
            ))
        )
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH") else ""
        )
        process = subprocess.Popen(
            command, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, env=env, text=True,
        )
        # The serve announce line ("listening on unix:...") is the
        # readiness signal.
        line = process.stdout.readline() if process.stdout else ""
        if "listening on" not in line:
            process.kill()
            raise ExperimentError(
                f"replica {name} failed to start: {line.strip()!r}"
            )
        return FleetReplica(name, f"unix:{socket_path}",
                            process=process)

    def start(self) -> "Fleet":
        os.makedirs(self.root, exist_ok=True)
        if self.l2_root is not None:
            os.makedirs(self.l2_root, exist_ok=True)
        for index in range(self.count):
            name = f"replica-{index}"
            if self.mode == "thread":
                handle = ServerThread(self._config(name)).start()
                replica = FleetReplica(
                    name, handle.endpoints[0], thread=handle
                )
            else:
                replica = self._spawn_process(name)
            self.replicas[name] = replica
        return self

    def stop(self) -> None:
        for replica in self.replicas.values():
            if replica.process is not None:
                if replica.process.poll() is None:
                    replica.process.send_signal(signal.SIGTERM)
            elif replica.thread is not None:
                # Partitioned replicas are already winding down
                # (partition() sets draining); stop() just joins.
                replica.thread.stop()
        deadline = time.monotonic() + 30.0
        for replica in self.replicas.values():
            if replica.process is not None:
                remaining = max(0.1, deadline - time.monotonic())
                try:
                    replica.process.wait(timeout=remaining)
                except subprocess.TimeoutExpired:
                    replica.process.kill()
                    replica.process.wait(timeout=5.0)
                if replica.process.stdout is not None:
                    replica.process.stdout.close()

    def __enter__(self) -> "Fleet":
        return self.start() if not self.replicas else self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- topology and clients ------------------------------------------

    def topology(self) -> dict[str, str]:
        """replica name -> endpoint, for every *live* replica."""
        return {
            name: replica.endpoint
            for name, replica in self.replicas.items()
            if replica.alive
        }

    def client(self, *, vnodes: int = DEFAULT_VNODES,
               retry: RetryPolicy | None = None,
               timeout: float = 30.0) -> FleetClient:
        """A FleetClient over the current topology, partition-wired."""
        return FleetClient(
            self.topology(), vnodes=vnodes, retry=retry,
            timeout=timeout, partitioner=self.partition,
        )

    # -- failure injection and observability ---------------------------

    def partition(self, name: str) -> None:
        """Kill/partition one replica (idempotent).

        Thread mode schedules :meth:`AnalysisServer.partition` on the
        replica's own event loop; process mode delivers SIGKILL.  In
        both cases every live connection dies abruptly — clients see
        a mid-request failure, not a graceful drain.
        """
        replica = self.replicas.get(name)
        if replica is None:
            raise ExperimentError(f"no replica named {name!r}")
        if replica.partitioned:
            return
        replica.partitioned = True
        if replica.process is not None:
            if replica.process.poll() is None:
                replica.process.kill()
                replica.process.wait(timeout=10.0)
        elif replica.thread is not None:
            handle = replica.thread
            if handle.loop is not None and handle.server is not None:
                # Synchronous: when this returns, the listeners are
                # closed and every connection is aborted — the next
                # request deterministically fails over.
                done = threading.Event()

                def _sever() -> None:
                    try:
                        handle.server.partition()
                    finally:
                        done.set()

                try:
                    handle.loop.call_soon_threadsafe(_sever)
                except RuntimeError:
                    return  # loop already gone: already dead enough
                done.wait(timeout=10.0)

    def metrics(self, name: str) -> dict:
        """One replica's metrics snapshot (fresh connection)."""
        replica = self.replicas[name]
        with ServiceClient(replica.endpoint, timeout=10.0) as conn:
            return conn.metrics()

    def healthz(self, name: str) -> dict:
        replica = self.replicas[name]
        with ServiceClient(replica.endpoint, timeout=10.0) as conn:
            return conn.healthz()

    def fleet_metrics(self) -> dict[str, dict]:
        """Metrics snapshots for every live replica."""
        return {
            name: self.metrics(name)
            for name, replica in self.replicas.items()
            if replica.alive
        }

"""Fleet lifecycle: start, observe, partition, and stop N replicas.

A :class:`Fleet` owns N ``python -m repro serve`` subprocesses that
share one L2 directory (:mod:`repro.fleet.store`) and serve disjoint
shard arcs of the consistent-hash ring.  Each replica is its own
interpreter, with its own memos and its own worker pool, so a body
that is byte-identical across replicas was computed by separate
processes.  :meth:`Fleet.start` launches every replica before it
waits for any, so a fleet starts in about one interpreter start-up.

Partitioning a replica is a SIGKILL: every live connection dies
mid-request, and the replica's workers exit by themselves once it is
gone.  A partitioned replica stays *down* — recovery is a new replica
joining the ring, not a resurrection — and the fleet's shared L2 keeps
the replacement warm.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

from ..errors import ExperimentError
from ..resilience.retry import RetryPolicy
from ..service.client import ServiceClient
from .client import FleetClient
from .ring import DEFAULT_VNODES


class FleetReplica:
    """One started replica: its ``serve`` process and endpoint."""

    def __init__(self, name: str, endpoint: str,
                 process: subprocess.Popen):
        self.name = name
        self.endpoint = endpoint
        self.process = process

    @property
    def alive(self) -> bool:
        return self.process.poll() is None


class Fleet:
    """N replicas over one shared L2, ready for a FleetClient."""

    def __init__(self, root: str, replicas: int = 3, *,
                 workers: int = 1, queue_limit: int = 256,
                 client_limit: int = 64, cache_max: int = 512,
                 shared_l2: bool = True,
                 job_timeout_s: float | None = None):
        if replicas < 1:
            raise ExperimentError(
                f"a fleet needs >= 1 replica, got {replicas}"
            )
        self.root = root
        self.count = replicas
        self.workers = workers
        self.queue_limit = queue_limit
        self.client_limit = client_limit
        self.cache_max = cache_max
        self.job_timeout_s = job_timeout_s
        self.l2_root = os.path.join(root, "l2") if shared_l2 else None
        self.replicas: dict[str, FleetReplica] = {}

    # -- lifecycle -----------------------------------------------------

    def _spawn(self, name: str) -> FleetReplica:
        """Launch one replica; it is ready once it announces."""
        socket_path = os.path.join(self.root, f"{name}.sock")
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
        return FleetReplica(name, f"unix:{socket_path}", process)

    def start(self) -> "Fleet":
        os.makedirs(self.root, exist_ok=True)
        if self.l2_root is not None:
            os.makedirs(self.l2_root, exist_ok=True)
        for index in range(self.count):
            name = f"replica-{index}"
            self.replicas[name] = self._spawn(name)
        try:
            for replica in self.replicas.values():
                # The serve announce line ("listening on unix:...") is
                # the readiness signal.
                line = replica.process.stdout.readline()
                if "listening on" not in line:
                    raise ExperimentError(
                        f"replica {replica.name} failed to start: "
                        f"{line.strip()!r}"
                    )
        except BaseException:
            self.stop()
            raise
        return self

    def stop(self) -> None:
        """Drain every replica (SIGTERM) and wait for it to exit; one
        still running after 30 s is killed."""
        for replica in self.replicas.values():
            if replica.process.poll() is None:
                replica.process.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + 30.0
        for replica in self.replicas.values():
            remaining = max(0.1, deadline - time.monotonic())
            try:
                replica.process.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                replica.process.kill()
                replica.process.wait(timeout=5.0)
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
        """SIGKILL one replica (idempotent).  Every live connection dies
        abruptly: its clients see a mid-request failure, not a graceful
        drain."""
        replica = self.replicas.get(name)
        if replica is None:
            raise ExperimentError(f"no replica named {name!r}")
        replica.process.kill()  # a no-op once the process has exited
        replica.process.wait(timeout=10.0)

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

"""Shared durable L2 result store (and shard-owner leases).

Every replica keeps its own in-memory L1 (a :class:`repro.memo.Memo`);
the fleet shares one L2, the only on-disk tier of the result cache — a
directory of per-key JSON documents written with the PR-4 store's
atomic write-rename primitive (:func:`repro.resilience.store.
atomic_write_json`), so concurrent replicas coordinate through the
filesystem's rename atomicity instead of locks.  A reader only ever
observes a complete document or none; a replica restarting after a
crash comes back warm from whatever the fleet computed while it was
gone.

The same directory carries **shard-owner leases**, the fleet-wide
single-flight mechanism.  Before computing a key, a replica tries to
create ``leases/<digest>`` exclusively (``O_CREAT | O_EXCL`` — atomic
across processes).  Losing the race means another replica is already
computing the same key (a client that failed over, or a stale shard
map routing around a membership change); the loser *follows* — it
polls the L2 for the winner's result instead of duplicating the
computation.  Leases carry a wall-clock expiry so a crashed holder
cannot wedge its keys: an expired lease is stolen with an atomic
replace.  A lease file whose record does not parse (its winner has
created it but not yet written it) counts as held until its mtime is a
TTL old.  The lease is an optimization, never a correctness
requirement — bodies are deterministic, so the worst case of a lost
lease race is one duplicate computation of the same bytes.

Failure policy: a failing L2 write (disk full, injected
``fleet.l2_write`` fault) **degrades the store to read-only** instead
of failing the request — the response was already computed; losing
shared warmth must not lose the response.
"""

from __future__ import annotations

import hashlib
import json
import os
import time

from ..errors import ExperimentError
from ..resilience import faults as _faults
from ..resilience.store import atomic_write_json


def _key_digest(key: str) -> str:
    """A filesystem-safe name for one content key."""
    return hashlib.sha1(key.encode("utf-8")).hexdigest()[:24]


class SharedL2Store:
    """One fleet-shared tier of the result cache, on a directory."""

    def __init__(self, root: str):
        if not root:
            raise ExperimentError("SharedL2Store needs a directory")
        self.root = root
        self.bodies_dir = os.path.join(root, "bodies")
        self.leases_dir = os.path.join(root, "leases")
        os.makedirs(self.bodies_dir, exist_ok=True)
        os.makedirs(self.leases_dir, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        #: why writes were dropped, or None while healthy
        self.degraded: str | None = None

    # -- result bodies -------------------------------------------------

    def _body_path(self, key: str) -> str:
        return os.path.join(self.bodies_dir, f"{_key_digest(key)}.json")

    def get(self, key: str) -> dict | None:
        """The stored body for ``key``, or None (counts hit/miss).

        A torn or foreign document reads as a miss — the atomic writer
        never produces one, but a shared directory is not trusted.
        """
        try:
            with open(self._body_path(key), encoding="utf-8") as fh:
                record = json.load(fh)
        except (OSError, json.JSONDecodeError):
            self.misses += 1
            return None
        if (
            not isinstance(record, dict)
            or record.get("key") != key
            or not isinstance(record.get("body"), dict)
        ):
            self.misses += 1
            return None
        self.hits += 1
        return record["body"]

    def put(self, key: str, kind: str, body: dict) -> None:
        """Publish a computed body fleet-wide (atomic replace)."""
        if self.degraded is not None:
            return
        spec = _faults.check("fleet.l2_write", path=self.root)
        try:
            if spec is not None and spec.kind == "io-error":
                raise OSError(
                    f"injected I/O error: L2 write under {self.root}"
                )
            atomic_write_json(
                self._body_path(key),
                {"key": key, "kind": kind, "body": body},
                indent=None, fsync=False,
            )
            self.writes += 1
        except OSError as exc:
            # Degrade to read-only: this replica keeps serving from
            # its L1 and reading the L2 the rest of the fleet writes.
            self.degraded = f"{type(exc).__name__}: {exc}"

    def __len__(self) -> int:
        try:
            return len(os.listdir(self.bodies_dir))
        except OSError:
            return 0

    def stats(self) -> dict:
        return {
            "entries": len(self),
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "degraded": self.degraded,
        }

    # -- shard-owner leases --------------------------------------------

    def _lease_path(self, key: str) -> str:
        return os.path.join(self.leases_dir, _key_digest(key))

    def acquire_lease(self, key: str, owner: str,
                      ttl_s: float) -> bool:
        """Try to become the fleet-wide computer of ``key``.

        Returns True when this call won the lease (exclusive create,
        atomic across replica processes) or stole an expired one.
        """
        path = self._lease_path(key)
        record = json.dumps(
            {"key": key, "owner": owner,
             "expires": time.time() + ttl_s},
            sort_keys=True,
        )
        try:
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL)
        except FileExistsError:
            if self.lease_held(key, ttl_s):
                return False
            # Expired (or long unreadable) lease: steal it atomically.
            # Two simultaneous stealers both "win" — harmless, since
            # bodies are deterministic and the L2 write is atomic.
            try:
                atomic_write_json(
                    path,
                    {"key": key, "owner": owner,
                     "expires": time.time() + ttl_s},
                    indent=None, fsync=False,
                )
            except OSError:
                return False
            return True
        except OSError:
            return False
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(record)
        except OSError:
            return False
        return True

    def lease_holder(self, key: str) -> dict | None:
        """The current lease record for ``key``, or None."""
        try:
            with open(self._lease_path(key),
                      encoding="utf-8") as handle:
                record = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(record, dict) or \
                not isinstance(record.get("expires"), (int, float)):
            return None
        return record

    def lease_held(self, key: str, ttl_s: float) -> bool:
        """Whether a live lease on ``key`` exists: a record until it
        expires, a file that does not parse (its winner has not written
        it yet) until its mtime is ``ttl_s`` old."""
        holder = self.lease_holder(key)
        if holder is not None:
            return holder["expires"] > time.time()
        try:
            mtime = os.stat(self._lease_path(key)).st_mtime
        except OSError:
            return False  # no lease file
        return time.time() - mtime < ttl_s

    def release_lease(self, key: str, owner: str) -> None:
        """Drop ``owner``'s lease on ``key`` (no-op if not held)."""
        holder = self.lease_holder(key)
        if holder is None or holder.get("owner") != owner:
            return
        try:
            os.unlink(self._lease_path(key))
        except OSError:
            pass

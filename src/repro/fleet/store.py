"""Shared durable L2 result store.

Every replica keeps its own in-memory L1 (a :class:`repro.memo.Memo`);
the fleet shares one L2, the only on-disk tier of the result cache — a
directory of per-key JSON documents written with the PR-4 store's
atomic write-rename primitive (:func:`repro.resilience.store.
atomic_write_json`), so concurrent replicas coordinate through the
filesystem's rename atomicity instead of locks.  A reader only ever
observes a complete document or none; two replicas that compute one
key publish the same bytes, and the last rename wins.  A replica
restarting after a crash comes back warm from whatever the fleet
computed while it was gone.

Failure policy: a failing L2 write (disk full, injected
``fleet.l2_write`` fault) **degrades the store to read-only** instead
of failing the request — the response was already computed; losing
shared warmth must not lose the response.
"""

from __future__ import annotations

import hashlib
import json
import os

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
        os.makedirs(self.bodies_dir, exist_ok=True)
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

"""Consistent-hash ring with virtual nodes.

The fleet routes the service's content-digest keys
(:attr:`repro.service.protocol.Request.key`) to replicas with classic
consistent hashing: every replica owns ``vnodes`` points on a 64-bit
ring (SHA-1 of ``"{replica}#{index}"``), and a key belongs to the
first replica point clockwise of the key's own hash.  Two properties
make this the right shard map for a fleet:

* **balance** — with enough virtual nodes (64 is the default and the
  tested floor) the arcs even out and no replica owns more than about
  twice its ideal share of a large key population;
* **minimal remap** — adding a replica steals keys *only for the arcs
  its new points claim* (every moved key moves *to* the new replica),
  and removing one reassigns *only its own keys* to the survivors.
  Everything else keeps its owner, which is what keeps the fleet's
  L1 caches warm across membership changes.

Rings are immutable: :meth:`HashRing.add` / :meth:`HashRing.remove`
return new rings, so a client can compare assignments before and
after a membership change (and tests can prove the remap is minimal).
"""

from __future__ import annotations

import bisect
import hashlib

from ..errors import ExperimentError

#: Default virtual nodes per replica (the balance floor the property
#: tests enforce: max load <= 2x ideal at >= 64 vnodes).
DEFAULT_VNODES = 64


def ring_position(text: str) -> int:
    """A stable 64-bit ring position for ``text``."""
    digest = hashlib.sha1(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """An immutable consistent-hash ring over named replicas."""

    def __init__(self, nodes, vnodes: int = DEFAULT_VNODES):
        node_list = list(nodes)
        if not node_list:
            raise ExperimentError("hash ring needs at least one node")
        if len(set(node_list)) != len(node_list):
            raise ExperimentError(
                f"hash ring nodes must be unique, got {node_list}"
            )
        if vnodes < 1:
            raise ExperimentError(
                f"vnodes must be >= 1, got {vnodes}"
            )
        self.vnodes = vnodes
        #: membership in a deterministic order (sorted, not insertion)
        self.nodes: tuple[str, ...] = tuple(sorted(node_list))
        points: list[tuple[int, str]] = []
        for node in self.nodes:
            for index in range(vnodes):
                points.append(
                    (ring_position(f"{node}#{index}"), node)
                )
        # Ties (astronomically unlikely) break on the node name so the
        # ring is a pure function of its membership.
        points.sort()
        self._points = points
        self._positions = [position for position, _ in points]

    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, node: str) -> bool:
        return node in self.nodes

    def owner(self, key: str) -> str:
        """The replica owning ``key``: the one that computes it."""
        index = bisect.bisect_right(
            self._positions, ring_position(key)
        ) % len(self._points)
        return self._points[index][1]

    def owners(self, key: str, count: int) -> list[str]:
        """The first ``count`` distinct replicas clockwise of ``key``.

        ``owners(key, 1)[0] == owner(key)``; the rest are the key's
        failover successors, in ring order.
        """
        if count < 1:
            raise ExperimentError(f"count must be >= 1, got {count}")
        start = bisect.bisect_right(
            self._positions, ring_position(key)
        ) % len(self._points)
        found: list[str] = []
        for offset in range(len(self._points)):
            node = self._points[(start + offset) % len(self._points)][1]
            if node not in found:
                found.append(node)
                if len(found) == count:
                    break
        return found

    def add(self, node: str) -> "HashRing":
        """A new ring with ``node`` joined."""
        if node in self.nodes:
            raise ExperimentError(
                f"node {node!r} is already on the ring"
            )
        return HashRing(self.nodes + (node,), vnodes=self.vnodes)

    def remove(self, node: str) -> "HashRing":
        """A new ring with ``node`` departed."""
        if node not in self.nodes:
            raise ExperimentError(f"node {node!r} is not on the ring")
        remaining = tuple(n for n in self.nodes if n != node)
        return HashRing(remaining, vnodes=self.vnodes)

    def assignments(self, keys) -> dict[str, str]:
        """key -> owning replica for every key in ``keys``."""
        return {key: self.owner(key) for key in keys}

    def load(self, keys) -> dict[str, int]:
        """Replica -> number of owned keys (all nodes present)."""
        counts = {node: 0 for node in self.nodes}
        for key in keys:
            counts[self.owner(key)] += 1
        return counts

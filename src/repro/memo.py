"""One bounded memo for every in-process cache.

The MACS hierarchy reuses each level's result in the levels above it:
a kernel compiles once, runs once per (options, config), decodes each
instruction once, and the service derives each distinct request once.
Every one of those tables is a :class:`Memo` — an LRU bounded by entry
count, with a lock and hit/miss counts — created at module level with
a constant cap (a server's L1 takes its cap from ``--cache-max``).

Each memo joins a weak registry when it is built.  :func:`clear_memos`
(behind ``repro.workloads.clear_caches``) empties every live one, and
a forked child empties them all before it runs: a child that inherited
the parent's entries would serve results it never computed.  A memo
whose module was never imported does not exist, so a cold start stays
cold.

:meth:`Memo.clear` swaps in a fresh table and lock instead of emptying
the old table under its lock: in a child forked while another thread
held that lock, acquiring it would never return.  A thread still
working on the old table finishes there, and its entries are dropped
with it.
"""

from __future__ import annotations

import os
import threading
import weakref
from collections import OrderedDict
from typing import Any, Generic, TypeVar

from .errors import ExperimentError

__all__ = ["Memo", "clear_memos"]

K = TypeVar("K")
V = TypeVar("V")


class _Table:
    """One generation of a memo: its entries, their lock, its counts."""

    __slots__ = ("entries", "lock", "hits", "misses")

    def __init__(self) -> None:
        self.entries: OrderedDict[Any, Any] = OrderedDict()
        self.lock = threading.Lock()
        self.hits = 0
        self.misses = 0


class Memo(Generic[K, V]):
    """A thread-safe LRU of at most ``max_entries`` values.

    Values are never ``None``: :meth:`get` returns ``None`` for a miss.
    """

    __slots__ = ("name", "max_entries", "_table", "__weakref__")

    def __init__(self, name: str, max_entries: int) -> None:
        if max_entries < 1:
            raise ExperimentError(
                f"{name} memo: max_entries must be >= 1, "
                f"got {max_entries}"
            )
        self.name = name
        self.max_entries = max_entries
        self._table = _Table()
        _LIVE.add(self)

    def get(self, key: K) -> V | None:
        """The value stored under ``key``, or None (counts hit/miss)."""
        table = self._table
        with table.lock:
            value = table.entries.get(key)
            if value is None:
                table.misses += 1
                return None
            table.entries.move_to_end(key)
            table.hits += 1
            return value

    def put(self, key: K, value: V) -> None:
        """Store ``value`` as the most recent entry, evicting the least
        recent one past the cap."""
        table = self._table
        with table.lock:
            table.entries[key] = value
            table.entries.move_to_end(key)
            if len(table.entries) > self.max_entries:
                table.entries.popitem(last=False)

    def __contains__(self, key: object) -> bool:
        """Whether ``key`` is stored (touches neither order nor counts)."""
        return key in self._table.entries

    def __len__(self) -> int:
        return len(self._table.entries)

    def clear(self) -> None:
        """Drop every entry and the hit/miss counts."""
        self._table = _Table()

    def stats(self) -> dict[str, int | float]:
        table = self._table
        total = table.hits + table.misses
        return {
            "entries": len(table.entries),
            "max_entries": self.max_entries,
            "hits": table.hits,
            "misses": table.misses,
            "hit_rate": round(table.hits / total, 4) if total else 0.0,
        }


#: Every live memo, so process-wide resets find them all.
_LIVE: "weakref.WeakSet[Memo]" = weakref.WeakSet()


def clear_memos() -> None:
    """Empty every live memo."""
    for memo in list(_LIVE):
        memo.clear()


os.register_at_fork(after_in_child=clear_memos)

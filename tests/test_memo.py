"""The one memo behind every in-process cache (:mod:`repro.memo`)."""

import os
import signal
import sys
import threading

import pytest

from repro.errors import ExperimentError
from repro.memo import _LIVE, Memo
from repro.workloads import clear_caches

#: Every memo an analysis process builds, by name.
MEMO_NAMES = {"compile", "run", "ax", "decode", "analysis", "static",
              "request", "service.l1"}


class TestLRU:
    def test_get_refreshes_and_counts(self):
        memo = Memo("probe", 2)
        assert memo.get("a") is None
        memo.put("a", 1)
        memo.put("b", 2)
        assert memo.get("a") == 1  # 'b' is now the least recent
        memo.put("c", 3)
        assert "b" not in memo
        assert memo.get("a") == 1 and memo.get("c") == 3
        assert memo.stats() == {"entries": 2, "max_entries": 2,
                                "hits": 3, "misses": 1,
                                "hit_rate": 0.75}

    def test_contains_touches_neither_order_nor_counts(self):
        memo = Memo("probe", 2)
        memo.put("a", 1)
        memo.put("b", 2)
        assert "a" in memo  # does not refresh 'a'
        memo.put("c", 3)
        assert "a" not in memo
        assert memo.stats()["hits"] == memo.stats()["misses"] == 0

    def test_clear_drops_entries_and_counts(self):
        memo = Memo("probe", 2)
        memo.put("a", 1)
        memo.get("a")
        memo.clear()
        assert len(memo) == 0
        assert memo.stats()["hits"] == 0

    def test_bad_bound_rejected(self):
        with pytest.raises(ExperimentError, match="max_entries"):
            Memo("probe", 0)


def test_clear_caches_empties_every_registered_memo(tmp_path):
    from repro.analysis import lint_program
    from repro.model import measure_ax
    from repro.service import ServiceConfig, start_in_thread
    from repro.service.client import ServiceClient
    from repro.workloads import compile_spec, run_kernel, workload

    spec = workload("lfk1")
    compiled = compile_spec(spec)
    run_kernel(spec)
    measure_ax(spec, compiled)
    lint_program(compiled.program)
    server = start_in_thread(ServiceConfig(
        socket_path=str(tmp_path / "memo.sock"), workers=1,
    ))
    try:
        with ServiceClient(server.endpoints[0]) as client:
            assert client.advise("lfk1").ok  # canonicalize, static, L1
        warm = {memo.name for memo in _LIVE if len(memo)}
        assert MEMO_NAMES <= warm
        clear_caches()
        assert {memo.name: len(memo) for memo in _LIVE if len(memo)} == {}
    finally:
        server.stop()


def test_child_forked_while_a_lock_is_held_can_use_the_memo():
    memo = Memo("probe", 4)
    memo.put("k", 1)
    held = threading.Event()
    release = threading.Event()

    def hold_the_lock():
        with memo._table.lock:
            held.set()
            release.wait(30)

    holder = threading.Thread(target=hold_the_lock)
    holder.start()
    try:
        assert held.wait(10)
        pid = os.fork()
        if pid == 0:
            memo.put("k", 2)
            os._exit(0 if memo.get("k") == 2 and len(memo) == 1 else 1)
        # A child stuck on the inherited lock (in the at-fork reset or
        # in put) is killed when the alarm fires.
        previous = signal.signal(
            signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL)
        )
        signal.alarm(10)
        try:
            _, status = os.waitpid(pid, 0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
    finally:
        release.set()
        holder.join()
    assert os.WIFEXITED(status), "the child blocked on the lock"
    assert os.WEXITSTATUS(status) == 0
    assert memo.get("k") == 1  # the parent's entry is untouched


def test_threads_only_read_values_put_under_their_key():
    memo = Memo("probe", 4)
    errors = []

    def worker(seed):
        try:
            for step in range(4000):
                key = (seed * 7 + step) % 10
                if step % 101 == 0:
                    memo.clear()
                elif step % 2:
                    memo.put(key, (key, seed, step))
                else:
                    value = memo.get(key)
                    if value is not None and value[0] != key:
                        errors.append((key, value))
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(seed,))
               for seed in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(memo) <= 4

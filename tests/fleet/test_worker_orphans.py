"""A replica that dies by SIGKILL takes its worker processes with it."""

import os
import signal
import time

from repro.fleet.fabric import Fleet


def _children(pid: int) -> list[int]:
    """The pids whose parent is ``pid``, read from /proc."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/status", encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith("PPid:"):
                        if int(line.split()[1]) == pid:
                            found.append(int(entry))
                        break
        except OSError:
            continue
    return found


def _running(pid: int, root: str) -> bool:
    """True while ``pid`` is a live process whose command line names
    ``root`` (a zombie's command line is empty, and a reused pid's
    names something else)."""
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            return root.encode() in fh.read()
    except OSError:
        return False


def test_partitioned_replica_leaves_no_worker(tmp_path):
    root = str(tmp_path)
    fleet = Fleet(root, 1).start()
    workers: list[int] = []
    try:
        replica = fleet.replicas["replica-0"]
        with fleet.client() as client:
            assert client.request("bound", {"kernel": "lfk1"}).ok
        workers = [pid for pid in _children(replica.process.pid)
                   if _running(pid, root)]
        assert len(workers) == 1
        fleet.partition("replica-0")
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and \
                any(_running(pid, root) for pid in workers):
            time.sleep(0.1)
        assert not any(_running(pid, root) for pid in workers)
    finally:
        fleet.stop()
        for pid in workers:
            if _running(pid, root):
                os.kill(pid, signal.SIGKILL)

"""Kill/resume integration: a ``macs-repro sweep`` subprocess is
SIGKILLed mid-run, resumed from its checkpoint, and the merged results
are byte-identical to an uninterrupted run."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
GRID = ["lfk1", "lfk12"]  # x all six option variants = 12 cells


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return env


def _sweep(extra, timeout=600):
    return subprocess.run(
        [sys.executable, "-m", "repro", "sweep", *GRID,
         "--jobs", "1", *extra],
        cwd=REPO, env=_env(), capture_output=True, text=True,
        timeout=timeout,
    )


class TestKillResume:
    def test_sigkill_mid_sweep_resume_byte_identical(self, tmp_path):
        baseline_out = tmp_path / "baseline.jsonl"
        completed = _sweep(["--out", str(baseline_out)])
        assert completed.returncode == 0, completed.stderr

        ckpt = tmp_path / "sweep.ckpt"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "sweep", *GRID,
             "--jobs", "1", "--checkpoint", str(ckpt)],
            cwd=REPO, env=_env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        # Wait for the first durable checkpoint record, then kill the
        # process hard — mid-sweep, quite possibly mid-append.
        deadline = time.monotonic() + 300
        while time.monotonic() < deadline:
            if ckpt.exists() and ckpt.stat().st_size > 0:
                break
            if proc.poll() is not None:
                break
            time.sleep(0.01)
        assert proc.poll() is None, (
            "sweep finished before it could be killed; grow the grid"
        )
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=60)
        assert proc.returncode == -signal.SIGKILL
        assert ckpt.stat().st_size > 0

        resumed_out = tmp_path / "resumed.jsonl"
        resumed = _sweep([
            "--checkpoint", str(ckpt),
            "--out", str(resumed_out),
            "--trace", str(tmp_path / "trace.jsonl"),
        ])
        assert resumed.returncode == 0, resumed.stderr
        assert resumed_out.read_bytes() == baseline_out.read_bytes()
        # the resume actually reused checkpointed work
        events = [
            json.loads(line) for line in
            (tmp_path / "trace.jsonl").read_text().splitlines()
        ]
        assert any(e["event"] == "checkpoint_skip" for e in events)

    def test_chaos_cli_sweep_resume_byte_identical(self, tmp_path):
        """The acceptance scenario end to end: torn-write, I/O-error
        and worker-kill faults via ``--chaos``, then a clean resume
        that matches the fault-free payload byte for byte."""
        baseline_out = tmp_path / "baseline.jsonl"
        completed = _sweep(["--out", str(baseline_out)])
        assert completed.returncode == 0, completed.stderr

        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({
            "name": "acceptance",
            "faults": [
                {"site": "store.append", "kind": "torn-write",
                 "path": "sweep.ckpt", "after": 2, "count": 1},
                {"site": "trace.write", "kind": "io-error",
                 "after": 4, "count": None},
                {"site": "worker", "kind": "exit", "task": 1,
                 "count": 1},
            ],
        }))
        ckpt = tmp_path / "sweep.ckpt"
        chaotic = subprocess.run(
            [sys.executable, "-m", "repro", "--chaos", str(plan),
             "sweep", *GRID, "--jobs", "2",
             "--checkpoint", str(ckpt),
             "--trace", str(tmp_path / "chaos-trace.jsonl")],
            cwd=REPO, env=_env(), capture_output=True, text=True,
            timeout=600,
        )
        # The chaotic run must not hang or crash the interpreter; any
        # contracted exit code is acceptable (cells may have failed).
        assert chaotic.returncode in (0, 5), chaotic.stderr

        resumed_out = tmp_path / "resumed.jsonl"
        resumed = _sweep([
            "--checkpoint", str(ckpt), "--out", str(resumed_out),
        ])
        assert resumed.returncode == 0, resumed.stderr
        assert resumed_out.read_bytes() == baseline_out.read_bytes()

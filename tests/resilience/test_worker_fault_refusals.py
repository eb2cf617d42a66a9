"""Worker faults that need a worker process are refused where none
exists, before anything runs, instead of killing the CLI itself."""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]


def _cli(*argv, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def test_inline_sweep_refuses_a_worker_exit(tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"faults": [
        {"site": "worker", "kind": "exit", "task": 0, "count": 1},
    ]}))
    out = tmp_path / "cells.jsonl"
    completed = _cli("--chaos", str(plan), "sweep", "lfk1", "lfk12",
                     "--out", str(out), cwd=tmp_path)
    assert completed.returncode == 5, completed.stderr
    assert "--jobs 2" in completed.stderr
    assert not out.exists()


def test_offline_request_refuses_an_inject(tmp_path):
    inject = json.dumps({"_inject": {"kind": "exit", "attempts": 1}})
    completed = _cli("request", "run", "--kernel", "lfk1", "--offline",
                     "--params", inject, cwd=tmp_path)
    assert completed.returncode == 2, completed.stderr
    assert "_inject" in completed.stderr
    assert completed.stdout == ""

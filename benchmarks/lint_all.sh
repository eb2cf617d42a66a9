#!/usr/bin/env bash
# Run every static check the repository knows about.
#
#   benchmarks/lint_all.sh            # lint all workloads + ruff/mypy
#   benchmarks/lint_all.sh lfk8       # lint one workload
#
# The repro linter (macs-repro lint) always runs; ruff and mypy run
# only when installed, since the offline image may not carry them.
set -euo pipefail
cd "$(dirname "$0")/.."

target="${1:-all}"

echo "== repro lint ($target) =="
PYTHONPATH=src python -m repro lint "$target" --min-severity warning

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff =="
    ruff check src/repro/analysis
    ruff check --select F401 src/repro
else
    echo "== ruff: not installed, skipping =="
fi

if command -v mypy >/dev/null 2>&1; then
    echo "== mypy =="
    mypy src/repro/analysis src/repro/model
else
    echo "== mypy: not installed, skipping =="
fi

echo "all checks passed"

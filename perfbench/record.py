"""Record the reference values the benchmark checks against.

    PYTHONPATH=src python3 perfbench/record.py

Writes ``perfbench/expected.json``: the sha256 of ``experiment all``'s
stdout, the paper's Table 4 measured CPF per kernel, and the cycles and
counters of every longvec kernel.  Run it only at a commit whose output
is known to be right; every later run is checked against it.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys

import common
import longvec


def main() -> int:
    from repro.paperdata import PAPER_TABLE4

    stdout = subprocess.run(
        [sys.executable, "-m", "repro", "experiment", "all"],
        env=common.child_env(0), check=True, capture_output=True,
    ).stdout
    expected = {
        "regen_sha256": hashlib.sha256(stdout).hexdigest(),
        "table4_paper_cpf": {str(number): row.t_c_cpf
                             for number, row in PAPER_TABLE4.items()},
        "longvec": longvec.record(),
    }
    kernels = ",\n".join(f"  {json.dumps(key)}: {json.dumps(row)}"
                         for key, row in expected.pop("longvec").items())
    text = json.dumps(expected, indent=1)[:-2]
    with open(common.EXPECTED_PATH, "w", encoding="utf-8") as handle:
        handle.write(f'{text},\n "longvec": {{\n{kernels}\n }}\n}}\n')
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

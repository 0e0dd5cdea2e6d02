"""Smoke runs of the benchmark harness, ``bench/run.py --smoke``.

One cycle per workload keeps the harness from rotting: each run must
finish and report ``correct``, which needs every emitted value to pass
the output checks and repeated outputs to be byte-identical.  The
traced runs also fail when a rename breaks the tracer's binding of a
package function by name.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "workload, trace", [("sweep-tilted", 1), ("sweep-rect", 1), ("cli-cold", 0)]
)
def test_smoke_run_is_correct(workload, trace):
    done = subprocess.run(
        [
            sys.executable,
            "bench/run.py",
            "--smoke",
            "--seed",
            "3",
            "--workload",
            workload,
            "--trace",
            str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"], result

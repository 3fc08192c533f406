"""The layered benchmark still runs against this tree.

`layerbench/run.py` drives the stack through the server's public entry
points, so a renamed method or a changed signature breaks the benchmark
without breaking any other test. Each case runs one short replay as a
subprocess from the root of the checkout and requires a clean exit and
a correct run with no failed operation on its summary line.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload, trace", [
    ("reference-2x768", 0), ("mosaic-8x384", 0), ("faults-4x384", 0),
    ("faults-4x384", 1)])
def test_benchmark_runs_against_the_tree(workload, trace):
    proc = subprocess.run(
        [sys.executable, "layerbench/run.py", "--workload", workload,
         "--seconds", "0.05", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert (summary["correct"], summary["failed"]) == (True, 0), summary

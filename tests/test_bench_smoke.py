"""The benchmark script runs each workload, its oracle accepts the
results and no operation fails.  A refactor that breaks a name the
benchmark imports or patches fails here; wall times are not checked,
being too noisy for a test."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["corpus-diff", "spin", "call-stack"])
def test_bench_workload_runs_correct(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.01", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, result
    assert result["attempted"] >= 1 and result["failed"] == 0, result

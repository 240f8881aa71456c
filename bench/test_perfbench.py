"""Fast self-check of the benchmark: every workload at a tiny size, every
declared metric printed with its unit, and the oracle passing.

    python3 -m pytest -q bench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run._import_capmach()

import oracle  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def tiny(name):
    if name == "call-stack":
        return workloads.CallStack(1, calls=2, width=2, stack=64)
    return workloads.WORKLOADS[name](1)


def _assert_declared(metrics, section):
    want = {m["name"]: m["unit"] for m in DECLARED[section]}
    assert {k: u for k, (_, u) in metrics.items()} == want
    assert all(isinstance(v, float) for v, _ in metrics.values())


def test_declared_workloads_exist():
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)


def test_oracle_tables():
    for name, (calls, src, trg) in oracle.CORPUS.items():
        assert trg == src + oracle.TARGET_STEPS_PER_CALL * calls, name
    assert oracle.CORPUS["call-return"] == (1, 8, 32)
    plan = [(3, 5), (1, 7)]
    assert oracle.call_stack_steps(plan) == (7 + 36 + 36, 7 + 36 + 36 + 48)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_end_to_end_tiny(name):
    metrics, attempted, failed, detail = run.end_to_end(tiny(name), 0)
    assert attempted >= 1 and failed == 0
    _assert_declared(metrics, "end_to_end")
    assert all(v > 0 for v, _ in metrics.values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_per_layer_tiny(name, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "STACK_POINTS", dict.fromkeys(run.STACK_POINTS, 64))
    monkeypatch.setattr(run, "CODE_POINTS", dict.fromkeys(run.CODE_POINTS, 40))
    monkeypatch.setattr(run, "SCALE_CALLS", 2)
    monkeypatch.setattr(run, "SCALE_WIDTH", 2)
    out = tmp_path / "trace.json"
    metrics, attempted, failed, detail = run.per_layer(tiny(name), 0, out)
    assert failed == 0
    _assert_declared(metrics, "per_layer")
    spans = json.loads(out.read_text())["ops"]["spans"]
    assert spans and all(s["op"] >= 1 for s in spans)
    assert metrics["steps.source"][0] > 0


def test_oracle_rejects_wrong_counts():
    w = tiny("call-stack")
    w.setup()
    src, trg = workloads._run_both(w.gc, w.cfgs, w.fuel)
    assert oracle.check_call_stack(src, trg, w.plan)
    assert not oracle.check_call_stack(src, trg, w.plan + [(1, 1)])
    assert not oracle.check_call_stack(trg, src, w.plan)


def test_command_prints_result_line():
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "spin",
         "--seed", "3", "--seconds", "0.01", "--trace", "0"],
        capture_output=True, text=True, timeout=120, check=True).stdout
    result = json.loads(out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    context = json.loads(out.splitlines()[-2])["context"]
    assert context["nproc"] >= 1 and context["python"]


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "spin",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""Smoke test for the benchmark: every workload at its smallest size.

``--seconds 0`` runs a single op per timed loop. Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def _run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    cmd = [*BENCHMARK["command"], "--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(workload: str, trace: int) -> dict:
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


def _check_names_and_units(metrics: dict, spec: list[dict]) -> None:
    assert set(metrics) == {m["name"] for m in spec}
    for m in spec:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert math.isfinite(metrics[m["name"]]["value"])


def test_workloads_match_benchmark_json():
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        name: cls.why for name, cls in workloads.WORKLOADS.items()
    }


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_end_to_end_metrics(workload):
    metrics = _result(workload, 0)["metrics"]
    _check_names_and_units(metrics, BENCHMARK["end_to_end"])
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_self_times_add_up_to_op_time(workload):
    metrics = _result(workload, 1)["metrics"]
    _check_names_and_units(metrics, BENCHMARK["per_layer"])
    self_times = [metrics[name]["value"] for name in spans.SELF_TIME_METRICS.values()]
    assert min(self_times) >= 0.0
    assert math.isclose(sum(self_times), metrics["trace.op_s.mean"]["value"], rel_tol=1e-9)
    assert metrics["em_solver.fill_entries"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("design-loop", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""

"""Tiny-size smoke runs of every benchmark workload, through ``run.py``."""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload: str, trace: int):
    if WORKLOADS[workload].workers > len(os.sched_getaffinity(0)):
        pytest.skip(f"{workload} needs {WORKLOADS[workload].workers} CPUs")
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
            "--seconds", "0", "--trace", str(trace), "--max-cells", "2",
        ],
        capture_output=True,
        text=True,
        timeout=150,
        cwd=HERE.parent,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_benchmark_lists_the_workloads():
    assert BENCHMARK["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS.values()]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_smoke_run_reports_every_layer_metric(workload):
    result = run(workload, trace=1)
    assert result["correct"] and result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(entry["name"] for entry in BENCHMARK["per_layer"])
    assert result["metrics"]["other.share"]["value"] < 0.5


@pytest.mark.parametrize("workload", ["reach_scaling", "churn_pool"])
def test_untraced_smoke_run_reports_every_end_to_end_metric(workload):
    result = run(workload, trace=0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2 * WORKLOADS[workload].min_sessions
    expected = {entry["name"]: entry["unit"] for entry in BENCHMARK["end_to_end"]}
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == expected
    assert all(metric["value"] > 0 for metric in result["metrics"].values())

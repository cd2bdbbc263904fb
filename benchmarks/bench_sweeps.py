"""Experiment S1 — every named scenario, quick grid, gated against baselines.

This is the benchmark-side mirror of the CI ``sweeps`` matrix: each
registered scenario's quick grid is executed through the
:class:`~repro.runner.session.ExperimentSession`, its canonical JSON artifact is
regenerated under ``benchmarks/results/``, and the aggregate numbers are
compared against the committed baseline under ``benchmarks/baselines/``.
Any drift in a scenario's success rates or round counts fails the run —
exactly the regression gate ``python -m repro.runner compare`` applies.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.runner.artifacts import compare, load_artifact, write_artifact
from repro.runner.reporting import render_sweep_groups
from repro.runner.scenarios import get_scenario, scenario_names
from repro.runner.session import ExperimentSession

BASELINES_DIR = pathlib.Path(__file__).parent / "baselines"


@pytest.mark.benchmark(group="sweeps")
@pytest.mark.parametrize("name", scenario_names())
def test_quick_sweep_matches_baseline(benchmark, write_result, results_dir, name):
    scenario = get_scenario(name)
    spec = scenario.grid(quick=True)

    result = benchmark.pedantic(lambda: ExperimentSession(spec).run(), rounds=1, iterations=1)

    payload = write_artifact(results_dir / f"{name}.quick.json", result, mode="quick")
    write_result(f"sweep_{name}", render_sweep_groups(f"{name} (quick grid)", result.groups))

    baseline = load_artifact(BASELINES_DIR / f"{name}.quick.json")
    report = compare(baseline, payload)
    assert report.ok, report.describe()

"""Experiment T1 — regenerate Table 1 (undirected necessary & sufficient conditions).

For bidirected (undirected) graph families the classical counting conditions
of Table 1 (in terms of ``n`` and ``κ(G)``) must coincide with the directed
reach conditions evaluated on the same graphs:

* crash / synchronous      : ``n > f  and κ > f``   ⇔ 1-reach
* crash / asynchronous     : ``n > 2f and κ > f``   ⇔ 2-reach
* Byzantine (sync & async) : ``n > 3f and κ > 2f``  ⇔ 3-reach

The ``table1`` scenario evaluates every cell on cycles, wheels, complete
graphs and random G(n, p) graphs; this benchmark runs it through the sweep
engine, asserts the agreement cell by cell, and writes ``table1.txt`` plus
the canonical JSON artifact.
"""

from __future__ import annotations

import pytest

from repro.runner.artifacts import write_artifact
from repro.runner.reporting import format_check, format_table
from repro.runner.scenarios import get_scenario
from repro.runner.session import ExperimentSession

TABLE1_HEADERS = (
    "graph", "n", "kappa", "f",
    "crash/sync n>f,k>f", "crash/async n>2f,k>f", "byz n>3f,k>2f",
    "1-reach", "2-reach", "3-reach", "agrees",
)


@pytest.mark.benchmark(group="table1")
def test_table1_regeneration(benchmark, write_result, results_dir):
    spec = get_scenario("table1").grid()

    result = benchmark.pedantic(lambda: ExperimentSession(spec).run(), rounds=1, iterations=1)
    write_artifact(results_dir / "table1.full.json", result, mode="full")

    rows = [
        [cell.topology, cell.n, cell.metrics["kappa"], cell.f,
         format_check(cell.metrics["classical_crash_sync"]),
         format_check(cell.metrics["classical_crash_async"]),
         format_check(cell.metrics["classical_byz"]),
         format_check(cell.metrics["reach_1"]),
         format_check(cell.metrics["reach_2"]),
         format_check(cell.metrics["reach_3"]),
         format_check(cell.success)]
        for cell in result.cells
    ]
    write_result("table1", format_table(TABLE1_HEADERS, rows))

    # Paper shape: on undirected graphs the reach conditions reproduce the
    # classical table for every family member and fault bound.
    assert all(cell.success for cell in result.cells)
    # Spot-check the expected verdicts: wheels (κ=3) tolerate one Byzantine
    # fault but not two; cycles (κ=2) tolerate crash faults only.
    by_name = {(cell.topology, cell.f): cell for cell in result.cells}
    assert by_name[("wheel(n=6)", 1)].metrics["reach_3"]
    assert not by_name[("wheel(n=6)", 2)].metrics["reach_3"]
    assert by_name[("bidirected-cycle(n=6)", 1)].metrics["reach_1"]
    assert not by_name[("bidirected-cycle(n=6)", 1)].metrics["reach_3"]
    assert by_name[("undirected-complete(n=7)", 2)].metrics["reach_3"]

"""Experiment T2 — regenerate Table 2 (directed graphs) and Theorem 17.

Table 2 assigns one tight condition to each (fault model × timing model)
cell; the paper's contribution is the bottom-right cell (Byzantine /
asynchronous = 3-reach, matching the synchronous Byzantine cell).  The
``table2`` scenario evaluates every cell's condition on directed families
and verifies the Theorem 17 equivalences (1-reach⇔CCS, 2-reach⇔CCA,
3-reach⇔BCS) on every graph; this benchmark runs it through the sweep
engine and writes ``table2.txt`` plus the canonical JSON artifact.
"""

from __future__ import annotations

import pytest

from repro.runner.artifacts import write_artifact
from repro.runner.reporting import format_check, format_table
from repro.runner.scenarios import get_scenario
from repro.runner.session import ExperimentSession

TABLE2_HEADERS = (
    "graph", "n", "f",
    "crash/sync (1-reach)", "crash/async (2-reach)",
    "byz/sync (3-reach)", "byz/async (3-reach, this paper)",
    "CCS", "CCA", "BCS", "Thm17 agrees",
)


@pytest.mark.benchmark(group="table2")
def test_table2_regeneration(benchmark, write_result, results_dir):
    spec = get_scenario("table2").grid()

    result = benchmark.pedantic(lambda: ExperimentSession(spec).run(), rounds=1, iterations=1)
    write_artifact(results_dir / "table2.full.json", result, mode="full")

    rows = [
        [cell.topology, cell.n, cell.f,
         format_check(cell.metrics["crash_sync"]),
         format_check(cell.metrics["crash_async"]),
         format_check(cell.metrics["byz_sync"]),
         format_check(cell.metrics["byz_async"]),
         format_check(cell.metrics["ccs"]),
         format_check(cell.metrics["cca"]),
         format_check(cell.metrics["bcs"]),
         format_check(cell.success)]
        for cell in result.cells
    ]
    write_result("table2", format_table(TABLE2_HEADERS, rows))

    # Theorem 17: the reach formulation agrees with the partition formulation
    # on every graph and fault bound swept.
    assert all(cell.success for cell in result.cells)

    by_name = {(cell.topology, cell.f): cell for cell in result.cells}
    # The paper's new cell: Byzantine/asynchronous feasibility equals the
    # synchronous Byzantine verdict (both are 3-reach).
    for cell in result.cells:
        assert cell.metrics["byz_async"] == cell.metrics["byz_sync"]
    # Expected shapes: the 7-clique tolerates f=2, the 4-clique only f=1;
    # directed cycles only support the crash/synchronous cell; Figure 1(a)
    # supports everything for f=1.
    assert by_name[("clique(n=7)", 2)].metrics["byz_async"]
    assert not by_name[("clique(n=4)", 2)].metrics["byz_async"]
    assert by_name[("directed-cycle(n=6)", 1)].metrics["crash_sync"]
    assert not by_name[("directed-cycle(n=6)", 1)].metrics["crash_async"]
    assert by_name[("figure-1a", 1)].metrics["byz_async"]

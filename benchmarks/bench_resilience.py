"""Experiment R1 — optimal resilience and the clique closed forms (Appendix A).

On the complete graph the reach conditions collapse to counting conditions:
1-reach ⇔ n > f, 2-reach ⇔ n > 2f, 3-reach ⇔ n > 3f.  The ``resilience``
scenario sweeps the general checkers over clique sizes and over the
two-clique family of Figure 1(b); this benchmark runs that grid through the
sweep engine, asserts the closed forms cell by cell, and persists both the
plain-text table and the canonical JSON artifact.
"""

from __future__ import annotations

import pytest

from repro.conditions.clique import max_byzantine_faults_clique, max_crash_faults_clique_async
from repro.runner.artifacts import write_artifact
from repro.runner.reporting import format_table
from repro.runner.scenarios import get_scenario
from repro.runner.session import ExperimentSession


def _bridge_count(cell) -> int:
    for part in cell.topology.split("(", 1)[1].rstrip(")").split(","):
        key, _, value = part.partition("=")
        if key == "forward_bridges":
            return int(value)
    raise AssertionError(f"no bridge count in topology label {cell.topology!r}")


@pytest.mark.benchmark(group="resilience")
def test_resilience_scenario_matches_closed_forms(benchmark, write_result, results_dir):
    spec = get_scenario("resilience").grid()

    result = benchmark.pedantic(lambda: ExperimentSession(spec).run(), rounds=1, iterations=1)
    write_artifact(results_dir / "resilience.full.json", result, mode="full")

    clique_cells = [cell for cell in result.cells if cell.topology.startswith("clique(")]
    bridge_cells = [cell for cell in result.cells if cell.topology.startswith("two-cliques(")]
    assert clique_cells and bridge_cells

    # Appendix A: on the n-clique the general checkers reproduce the closed
    # forms n > k·f for k-reach, hence (n-1)//2 crash and (n-1)//3 Byzantine.
    # (The conditions presume f < n; the f >= n cells are degenerate — the
    # adversary owns the whole graph — and are recorded but not asserted.)
    for cell in clique_cells:
        n, f = cell.n, cell.f
        if f >= n:
            continue
        assert cell.metrics["reach_1"] == (n > f), (n, f)
        assert cell.metrics["reach_2"] == (n > 2 * f), (n, f)
        assert cell.metrics["reach_3"] == (n > 3 * f), (n, f)
        assert cell.metrics["reach_2"] == (f <= max_crash_faults_clique_async(n))
        assert cell.success == cell.metrics["reach_3"] == (f <= max_byzantine_faults_clique(n))

    write_result(
        "resilience_cliques",
        format_table(
            ["n", "f", "1-reach", "2-reach", "3-reach", "(n-1)//2 >= f", "(n-1)//3 >= f"],
            [
                [cell.n, cell.f, cell.metrics["reach_1"], cell.metrics["reach_2"],
                 cell.metrics["reach_3"], f <= max_crash_faults_clique_async(cell.n),
                 f <= max_byzantine_faults_clique(cell.n)]
                for cell in clique_cells
                for f in [cell.f]
            ],
        ),
    )

    # Figure 1(b) family: more bridges never hurts, one bridge tolerates no
    # fault, five bridges tolerate at least one.
    f1 = sorted(
        (cell for cell in bridge_cells if cell.f == 1), key=_bridge_count
    )
    verdicts = [cell.success for cell in f1]
    assert verdicts == sorted(verdicts)
    assert verdicts[0] is False
    assert verdicts[-1] is True

    write_result(
        "resilience_two_cliques",
        format_table(
            ["bridges per direction", "f", "3-reach"],
            [[_bridge_count(cell), cell.f, cell.success] for cell in sorted(
                bridge_cells, key=lambda cell: (_bridge_count(cell), cell.f)
            )],
        ),
    )

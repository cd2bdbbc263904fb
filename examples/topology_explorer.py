"""Topology explorer: which fault-tolerance guarantees does a network support?

Feeds a collection of directed topologies (including the paper's Figure 1
graphs) through the full condition family and prints, for each graph, the
Table 2 verdict of every cell plus the resilience (maximum tolerable f) and —
when a condition fails — the witnessing counterexample, which is exactly the
data the impossibility argument of Theorem 18 needs.

Run with:  python examples/topology_explorer.py
"""

from __future__ import annotations

from repro.analysis.necessity import build_schedule, demonstrate_disagreement, find_violation
from repro.conditions.reach_conditions import (
    check_one_reach,
    check_three_reach,
    check_two_reach,
    max_tolerable_f,
)
from repro.graphs.generators import (
    clique_with_feeders,
    complete_digraph,
    directed_cycle,
    figure_1a,
    figure_1b,
    two_cliques_bridged,
)
from repro.runner.reporting import print_table


def main() -> None:
    graphs = [
        complete_digraph(4),
        directed_cycle(6),
        figure_1a(),
        clique_with_feeders(4, 2),
        two_cliques_bridged(4, 2, 2),
        figure_1b(),
    ]
    f = 1

    rows = []
    for graph in graphs:
        rows.append(
            [
                graph.name,
                graph.num_nodes,
                "yes" if check_one_reach(graph, f).holds else "no",
                "yes" if check_two_reach(graph, f).holds else "no",
                "yes" if check_three_reach(graph, f).holds else "no",
                max_tolerable_f(graph, k=3, upper_bound=3),
            ]
        )
    print_table(
        f"Feasibility per condition (f = {f}) and Byzantine resilience",
        ["graph", "n", "1-reach (crash/sync)", "2-reach (crash/async)",
         "3-reach (Byzantine, this paper)", "max Byzantine f"],
        rows,
    )

    # For a graph that fails 3-reach, show the witnessing certificate and the
    # concrete disagreement it forces (Theorem 18 made executable).
    weak = directed_cycle(6)
    violation = find_violation(weak, f)
    assert violation is not None
    print("Counterexample on", weak.name)
    print(" ", violation.describe())
    schedule = build_schedule(weak, violation, epsilon=1.0)
    print("  structural facts of the indistinguishability proof hold:",
          schedule.structural_facts_hold)
    result = demonstrate_disagreement(weak, violation, epsilon=1.0, rounds=15)
    print(
        f"  running the e3 adversary forces outputs {result.output_v:.2f} vs "
        f"{result.output_u:.2f} → disagreement {result.disagreement:.2f} ≥ ε"
    )
    assert result.convergence_violated


if __name__ == "__main__":
    main()

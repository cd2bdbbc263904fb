"""Tests for the Theorem 17 equivalences and the literal reach oracles.

The equivalences are evaluated by the owner the ``check-table2`` sweep cell
runs, :func:`repro.analysis.feasibility.directed_feasibility_row`; the
literal oracles live in ``tests/_oracles.py``.
"""

from __future__ import annotations

import pytest

from _oracles import check_one_reach_naive, check_three_reach_naive, check_two_reach_naive
from repro.analysis.feasibility import directed_feasibility_row, equivalences_hold
from repro.conditions.partition_conditions import check_bcs
from repro.conditions.reach_conditions import (
    check_one_reach,
    check_three_reach,
    check_two_reach,
)
from repro.graphs.digraph import DiGraph
from repro.graphs.generators import (
    clique_with_feeders,
    complete_digraph,
    directed_cycle,
    figure_1a,
    random_digraph,
    star_out,
    two_cliques_bridged,
)

SMALL_GRAPHS = [
    complete_digraph(4),
    directed_cycle(5),
    star_out(5),
    figure_1a(),
    clique_with_feeders(3, 2),
    two_cliques_bridged(3, 2, 2),
    DiGraph(edges=[(0, 1), (1, 2), (2, 0), (0, 3), (3, 0), (3, 2)]),
]

#: Theorem 17's three pairs, as cells of a Table 2 feasibility row.
PAIRS = (("1-reach", "CCS"), ("2-reach", "CCA"), ("3-reach", "BCS"))


class TestTheorem17:
    @pytest.mark.parametrize("f", [0, 1, 2])
    def test_equivalences_on_structured_graphs(self, f):
        for graph in SMALL_GRAPHS:
            assert equivalences_hold(directed_feasibility_row(graph, f)), (graph.name, f)

    def test_equivalences_on_random_digraphs(self):
        for seed in range(8):
            graph = random_digraph(6, 0.35, seed=seed, ensure_connected=(seed % 2 == 0))
            for f in (0, 1):
                row = directed_feasibility_row(graph, f)
                for reach, partition in PAIRS:
                    assert row.verdict(reach) == row.verdict(partition), (seed, f, reach)

    def test_individual_pairs(self):
        row = directed_feasibility_row(figure_1a(), 1)
        for reach, partition in PAIRS:
            assert row.verdict(reach) == row.verdict(partition), reach

    def test_describe_mentions_verdicts(self):
        holding = check_three_reach(complete_digraph(4), 1).describe()
        assert holding == "3-reach (f=1): HOLDS"
        violated = check_bcs(complete_digraph(3), 1).describe()
        assert violated.startswith("BCS (f=1): VIOLATED")
        assert "partition violation" in violated

    def test_results_expose_reports(self):
        row = directed_feasibility_row(complete_digraph(3), 1)
        assert equivalences_hold(row)
        assert row.verdict("3-reach") is row.verdict("BCS") is False


class TestNaiveOracles:
    @pytest.mark.parametrize("f", [0, 1])
    def test_naive_matches_optimized_on_small_graphs(self, f):
        graphs = [
            complete_digraph(4),
            directed_cycle(4),
            star_out(4),
            DiGraph(edges=[(0, 1), (1, 2), (2, 0), (2, 3), (3, 0)]),
        ]
        for graph in graphs:
            assert check_one_reach_naive(graph, f).holds == check_one_reach(graph, f).holds
            assert check_two_reach_naive(graph, f).holds == check_two_reach(graph, f).holds
            assert check_three_reach_naive(graph, f).holds == check_three_reach(graph, f).holds

    def test_naive_matches_on_random_graphs(self):
        for seed in range(5):
            graph = random_digraph(5, 0.4, seed=seed)
            assert (
                check_three_reach_naive(graph, 1).holds
                == check_three_reach(graph, 1).holds
            )

    def test_naive_violation_certificate(self):
        report = check_three_reach_naive(complete_digraph(3), 1)
        assert not report.holds
        violation = report.reach_violation
        assert not (violation.reach_u & violation.reach_v)

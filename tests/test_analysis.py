"""Tests for the analysis layer: convergence bounds, feasibility, necessity."""

from __future__ import annotations

import pytest

from repro.algorithms.base import ConsensusConfig
from repro.analysis.convergence import (
    all_within_bound,
    contraction_factors,
    convergence_table,
    theoretical_bound,
)
from repro.analysis.feasibility import (
    compare_undirected,
    directed_feasibility_row,
    equivalences_hold,
)
from repro.analysis.necessity import (
    build_schedule,
    demonstrate_disagreement,
    find_violation,
)
from repro.conditions.reach_conditions import check_three_reach
from repro.exceptions import ProtocolError
from repro.graphs.generators import (
    bidirected_complete,
    bidirected_cycle,
    bidirected_wheel,
    complete_digraph,
    directed_cycle,
    figure_1a,
    random_k_out_digraph,
    star_out,
    two_cliques_bridged,
)


def graph_id(value):
    """Graphs are named by their generator; other values keep pytest's id."""
    return getattr(value, "name", None)


class TestConvergenceAnalysis:
    def test_theoretical_bound(self):
        assert theoretical_bound(1.0, 0) == 1.0
        assert theoretical_bound(1.0, 3) == 0.125

    def test_required_rounds(self):
        # Section 4.6's round count has one owner, ConsensusConfig.rounds_needed.
        assert ConsensusConfig(f=0, epsilon=0.1).rounds_needed() == 4
        assert ConsensusConfig(f=0, epsilon=0.1, input_high=0.05).rounds_needed() == 0
        with pytest.raises(ProtocolError):
            ConsensusConfig(f=0, epsilon=0.0)

    def test_convergence_table(self):
        rows = convergence_table([1.0, 0.5, 0.2])
        assert len(rows) == 3
        assert rows[2].theoretical_bound == pytest.approx(0.25)
        assert all(row.within_bound for row in rows)
        assert convergence_table([]) == []

    def test_all_within_bound(self):
        assert all_within_bound([1.0, 0.5, 0.25])
        assert not all_within_bound([1.0, 0.9])

    def test_contraction_factors(self):
        factors = contraction_factors([1.0, 0.5, 0.1, 0.0, 0.0])
        assert factors[0] == pytest.approx(0.5)
        assert len(factors) == 3


class TestFeasibilityAnalysis:
    @pytest.mark.parametrize(
        "graph, f, expected",
        [
            (bidirected_wheel(7), 1, {"kappa": 3, "classical_byz": True, "reach_3": True}),
            (
                bidirected_cycle(6),
                1,
                {
                    "classical_crash_sync": True,
                    "reach_1": True,
                    "classical_byz": False,
                    "reach_3": False,
                },
            ),
            (bidirected_wheel(6), 1, {"reach_3": True}),
            (bidirected_wheel(6), 2, {"reach_3": False}),
            (bidirected_complete(7), 2, {"reach_3": True}),
        ],
        ids=graph_id,
    )
    def test_undirected_comparison(self, graph, f, expected):
        # Table 1: wheels (kappa = 3) tolerate one Byzantine fault but not
        # two; cycles (kappa = 2) tolerate crash faults only.
        row = compare_undirected(graph, f)
        assert row.consistent
        assert {cell: getattr(row, cell) for cell in expected} == expected

    def test_family_comparison(self):
        rows = [compare_undirected(graph, 1) for graph in (bidirected_cycle(5), bidirected_wheel(6))]
        assert all(row.consistent for row in rows)

    @pytest.mark.parametrize(
        "graph, f, expected",
        [
            (figure_1a(), 1, {"3-reach": True, "byz/async": True}),
            (directed_cycle(5), 1, {"crash/sync": True, "byz/async": False}),
            (directed_cycle(6), 1, {"crash/sync": True, "crash/async": False}),
            (complete_digraph(7), 2, {"byz/async": True}),
            (complete_digraph(4), 2, {"byz/async": False}),
        ],
        ids=graph_id,
    )
    def test_directed_row_and_theorem17(self, graph, f, expected):
        # Table 2; the paper's new cell, Byzantine/asynchronous, has the
        # synchronous Byzantine verdict (both are 3-reach).
        row = directed_feasibility_row(graph, f)
        assert equivalences_hold(row)
        assert row.verdict("byz/async") == row.verdict("byz/sync")
        assert {cell: row.verdict(cell) for cell in expected} == expected
        assert row.verdict("unknown-condition") is None


class TestNecessity:
    def test_no_violation_on_feasible_graph(self):
        assert find_violation(complete_digraph(4), 1) is None

    def test_violation_found_on_weak_graph(self):
        violation = find_violation(directed_cycle(6), 1)
        assert violation is not None
        assert not (violation.reach_u & violation.reach_v)

    def test_schedule_structure(self):
        graph = directed_cycle(6)
        violation = find_violation(graph, 1)
        schedule = build_schedule(graph, violation, epsilon=1.0)
        assert schedule.structural_facts_hold
        assert schedule.e1.crashed == violation.fault_set_v
        assert schedule.e2.crashed == violation.fault_set_u
        assert schedule.e3.byzantine == violation.shared_fault_set
        assert set(schedule.e3.inputs) == set(graph.nodes)
        # Inputs of e3: 0 on reach_v, epsilon on reach_u.
        assert all(schedule.e3.inputs[node] == 0.0 for node in violation.reach_v)
        assert all(schedule.e3.inputs[node] == 1.0 for node in violation.reach_u)

    def test_schedule_epsilon_validation(self):
        graph = directed_cycle(6)
        violation = find_violation(graph, 1)
        with pytest.raises(Exception):
            build_schedule(graph, violation, epsilon=0.0)

    @pytest.mark.parametrize(
        "graph, epsilon, rounds",
        [
            (directed_cycle(6), 1.0, 15),
            (star_out(5), 0.5, 10),
            (star_out(6), 1.0, 20),
            (two_cliques_bridged(4, 1, 1), 1.0, 20),
            (random_k_out_digraph(7, 1, seed=5), 1.0, 20),
        ],
        ids=graph_id,
    )
    def test_disagreement_demonstration(self, graph, epsilon, rounds):
        # Theorem 18: on a 3-reach violator honest nodes end the full
        # epsilon apart.
        assert not check_three_reach(graph, 1).holds
        violation = find_violation(graph, 1)
        assert build_schedule(graph, violation, epsilon=epsilon).structural_facts_hold
        result = demonstrate_disagreement(graph, violation, epsilon=epsilon, rounds=rounds)
        assert result.convergence_violated
        assert result.disagreement >= epsilon - 1e-9

    def test_disagreement_respects_rounds_argument(self):
        graph = directed_cycle(6)
        violation = find_violation(graph, 1)
        result = demonstrate_disagreement(graph, violation, epsilon=1.0, rounds=3)
        assert result.rounds == 3

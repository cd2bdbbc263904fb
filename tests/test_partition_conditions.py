"""Unit tests for the partition conditions CCS / CCA / BCS (Defs. 16-18)."""

from __future__ import annotations

import pytest

from _oracles import check_bcs_literal, check_cca_literal, check_ccs_literal, has_x_incoming
from repro.conditions.partition_conditions import check_bcs, check_cca, check_ccs
from repro.exceptions import ConditionError
from repro.graphs.digraph import DiGraph
from repro.graphs.generators import (
    complete_digraph,
    directed_cycle,
    figure_1a,
    star_out,
    two_cliques_bridged,
)


class TestIncomingRelation:
    def test_has_x_incoming_counts_distinct_neighbors(self):
        graph = DiGraph(edges=[(0, 3), (1, 3), (2, 3), (0, 4)])
        assert has_x_incoming(graph, {0, 1, 2}, {3, 4}, 3)
        assert not has_x_incoming(graph, {0, 1, 2}, {3, 4}, 4)

    def test_has_x_incoming_restricted_to_source_set(self):
        graph = DiGraph(edges=[(0, 2), (1, 2)])
        assert has_x_incoming(graph, {0}, {2}, 1)
        assert not has_x_incoming(graph, {0}, {2}, 2)


class TestCCA:
    def test_clique_threshold(self):
        assert check_cca(complete_digraph(3), 1).holds
        assert not check_cca(complete_digraph(2), 1).holds

    def test_cycle_fails_for_one_fault(self):
        report = check_cca(directed_cycle(6), 1)
        assert not report.holds
        violation = report.partition_violation
        assert violation is not None
        assert violation.left and violation.right
        assert not (violation.left & violation.right)
        assert violation.left_incoming <= 1 and violation.right_incoming <= 1

    def test_cycle_holds_for_zero_faults(self):
        assert check_cca(directed_cycle(6), 0).holds

    def test_violation_description(self):
        report = check_cca(directed_cycle(4), 1)
        assert "partition violation" in report.partition_violation.describe()

    def test_invalid_input(self):
        with pytest.raises(ConditionError, match="cannot evaluate conditions on an empty graph"):
            check_cca(DiGraph(), 1)


class TestCCS:
    def test_clique_always_holds(self):
        assert check_ccs(complete_digraph(3), 2).holds

    def test_star_breaks_when_hub_removed(self):
        assert check_ccs(star_out(4), 0).holds
        assert not check_ccs(star_out(4), 1).holds

    def test_cycle_tolerates_single_crash(self):
        assert check_ccs(directed_cycle(5), 1).holds

    def test_two_sources_violate_ccs(self):
        graph = DiGraph(edges=[(0, 2), (1, 2)])
        report = check_ccs(graph, 0)
        assert not report.holds
        assert report.partition_violation.left_incoming == 0


class TestBCS:
    def test_clique_threshold(self):
        assert check_bcs(complete_digraph(4), 1).holds
        assert not check_bcs(complete_digraph(3), 1).holds

    def test_figure_1a(self):
        assert check_bcs(figure_1a(), 1).holds
        assert not check_bcs(figure_1a(), 2).holds

    def test_violation_reports_fault_set(self):
        report = check_bcs(figure_1a(), 2)
        assert not report.holds
        assert len(report.partition_violation.fault_set) <= 2

    def test_two_cliques_with_few_bridges(self):
        graph = two_cliques_bridged(4, 2, 2)
        assert check_bcs(graph, 0).holds
        assert not check_bcs(graph, 2).holds


class TestLiteralOracles:
    @pytest.mark.parametrize("f", [0, 1])
    def test_literal_matches_fast_on_small_graphs(self, f):
        graphs = [
            complete_digraph(4),
            directed_cycle(4),
            star_out(4),
            DiGraph(edges=[(0, 1), (1, 2), (2, 0), (2, 3), (3, 0)]),
        ]
        for graph in graphs:
            assert check_cca_literal(graph, f).holds == check_cca(graph, f).holds
            assert check_ccs_literal(graph, f).holds == check_ccs(graph, f).holds
            assert check_bcs_literal(graph, f).holds == check_bcs(graph, f).holds

    def test_literal_violation_certificates(self):
        report = check_cca_literal(directed_cycle(4), 1)
        assert not report.holds
        assert report.partition_violation is not None

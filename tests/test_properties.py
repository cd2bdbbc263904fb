"""Unit tests for structural graph properties (Table 1 ingredients)."""

from __future__ import annotations

from repro.graphs.digraph import DiGraph
from repro.graphs.generators import (
    bidirected_cycle,
    bidirected_wheel,
    complete_digraph,
    directed_path,
    figure_1a,
    star_out,
)
from repro.graphs.flow import vertex_connectivity
from repro.graphs.properties import (
    critical_edges_for_connectivity,
    density,
    is_complete,
    min_in_degree,
    undirected_feasibility,
    undirected_vertex_connectivity,
)


class TestBasicProperties:
    def test_is_complete(self):
        assert is_complete(complete_digraph(4))
        assert not is_complete(bidirected_cycle(4))

    def test_min_degrees(self):
        star = star_out(4)
        assert min_in_degree(star) == 0
        assert min_in_degree(complete_digraph(4)) == 3
        assert min_in_degree(DiGraph()) == 0

    def test_density(self):
        assert density(complete_digraph(5)) == 1.0
        assert density(DiGraph(nodes=[1])) == 0.0
        assert 0 < density(bidirected_cycle(5)) < 1


class TestConnectivity:
    def test_undirected_connectivity_of_wheel(self):
        assert undirected_vertex_connectivity(bidirected_wheel(6)) == 3

    def test_undirected_connectivity_symmetrizes(self):
        # A directed path has κ = 0 as a digraph but 1 when symmetrized.
        path = directed_path(4)
        assert vertex_connectivity(path) == 0
        assert undirected_vertex_connectivity(path) == 1

    def test_figure_1a_connectivity(self):
        # Figure 1(a): κ(G) = 3 > 2f for f = 1.
        assert undirected_vertex_connectivity(figure_1a()) == 3

    def test_single_node(self):
        assert undirected_vertex_connectivity(DiGraph(nodes=[1])) == 0


class TestUndirectedFeasibility:
    def test_clique_feasibility(self):
        verdict = undirected_feasibility(complete_digraph(7), f=2)
        assert verdict.crash_synchronous
        assert verdict.crash_asynchronous
        assert verdict.byzantine_synchronous
        assert verdict.byzantine_asynchronous

    def test_cycle_only_tolerates_crash(self):
        verdict = undirected_feasibility(bidirected_cycle(6), f=1)
        assert verdict.kappa == 2
        assert verdict.crash_synchronous
        assert verdict.crash_asynchronous
        assert not verdict.byzantine_synchronous

    def test_byzantine_needs_three_f_plus_one_nodes(self):
        verdict = undirected_feasibility(complete_digraph(3), f=1)
        assert not verdict.byzantine_synchronous
        assert verdict.crash_synchronous

    def test_figure_1a_feasible_for_one_byzantine(self):
        verdict = undirected_feasibility(figure_1a(), f=1)
        assert verdict.byzantine_synchronous
        assert verdict.byzantine_asynchronous
        verdict2 = undirected_feasibility(figure_1a(), f=2)
        assert not verdict2.byzantine_synchronous


class TestCriticalEdges:
    def test_every_figure_1a_edge_is_critical(self):
        # The paper notes that removing any edge of Figure 1(a) drops κ(G)
        # below 2f + 1 = 3 and makes Byzantine consensus impossible.
        graph = figure_1a()
        critical = critical_edges_for_connectivity(graph, threshold=3)
        assert len(critical) == 8  # every undirected edge

    def test_clique_edges_not_critical_for_low_threshold(self):
        graph = complete_digraph(5)
        assert critical_edges_for_connectivity(graph, threshold=2) == []

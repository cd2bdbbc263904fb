"""Unit tests for vertex-disjoint path / connectivity computations."""

from __future__ import annotations

import pytest

from repro.exceptions import GraphError
from repro.graphs.digraph import DiGraph
from repro.graphs.flow import (
    max_disjoint_paths_from_set,
    max_vertex_disjoint_paths,
    vertex_connectivity,
)
from repro.graphs.generators import (
    bidirected_cycle,
    bidirected_wheel,
    complete_digraph,
    directed_cycle,
    directed_path,
)


class TestPairwiseDisjointPaths:
    def test_clique_has_n_minus_one_disjoint_paths(self):
        clique = complete_digraph(5)
        assert max_vertex_disjoint_paths(clique, 0, 4) == 4

    def test_directed_cycle_has_single_path(self):
        cycle = directed_cycle(5)
        assert max_vertex_disjoint_paths(cycle, 0, 3) == 1

    def test_no_path_gives_zero(self):
        graph = DiGraph(edges=[(0, 1)])
        graph.add_node(2)
        assert max_vertex_disjoint_paths(graph, 0, 2) == 0
        assert max_vertex_disjoint_paths(graph, 1, 0) == 0

    def test_same_node_raises(self):
        graph = complete_digraph(3)
        with pytest.raises(GraphError):
            max_vertex_disjoint_paths(graph, 1, 1)

    def test_two_internally_disjoint_routes(self):
        graph = DiGraph(edges=[(0, 1), (1, 3), (0, 2), (2, 3)])
        assert max_vertex_disjoint_paths(graph, 0, 3) == 2

    def test_shared_internal_node_limits_count(self):
        graph = DiGraph(edges=[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)])
        # Every path from 0 to 4 goes through node 3.
        assert max_vertex_disjoint_paths(graph, 0, 4) == 1

    def test_restrict_to_subset(self):
        graph = DiGraph(edges=[(0, 1), (1, 3), (0, 2), (2, 3)])
        assert max_vertex_disjoint_paths(graph, 0, 3, restrict_to={0, 1, 3}) == 1
        assert max_vertex_disjoint_paths(graph, 0, 3, restrict_to={0, 3}) == 0

    def test_figure_1b_has_exactly_four_disjoint_paths(self, fig1b):
        # The paper's point: v1 and w1 are joined by only 2f = 4 disjoint paths,
        # so all-pair reliable message transmission is impossible, yet consensus
        # is achievable (3-reach holds, see test_figures.py).
        assert max_vertex_disjoint_paths(fig1b, "v1", "w1") == 4


class TestSetToNodeDisjointPaths:
    def test_disjoint_paths_from_set(self):
        graph = DiGraph(edges=[(0, 2), (1, 2)])
        assert max_disjoint_paths_from_set(graph, {0, 1}, 2) == 2

    def test_target_in_source_set_is_trivially_satisfied(self):
        graph = complete_digraph(3)
        assert max_disjoint_paths_from_set(graph, {0, 1}, 1) == 3

    def test_sources_share_relay(self):
        graph = DiGraph(edges=[(0, 2), (1, 2), (2, 3)])
        assert max_disjoint_paths_from_set(graph, {0, 1}, 3) == 1

    def test_empty_source_set(self):
        graph = complete_digraph(3)
        assert max_disjoint_paths_from_set(graph, set(), 0) == 0

    def test_restricted_subgraph(self):
        graph = complete_digraph(4)
        assert max_disjoint_paths_from_set(graph, {1, 2}, 0, restrict_to={0, 1, 2}) == 2


class TestGlobalConnectivity:
    def test_clique_connectivity(self):
        assert vertex_connectivity(complete_digraph(5)) == 4

    def test_cycle_connectivity(self):
        assert vertex_connectivity(bidirected_cycle(6)) == 2

    def test_wheel_connectivity(self):
        assert vertex_connectivity(bidirected_wheel(6)) == 3

    def test_path_connectivity(self):
        assert vertex_connectivity(directed_path(4)) == 0

    def test_tiny_graphs(self):
        assert vertex_connectivity(DiGraph(nodes=[1])) == 0
        assert vertex_connectivity(DiGraph(nodes=[1, 2])) == 0

    def test_global_is_the_least_pairwise_count(self):
        for graph in (bidirected_cycle(6), bidirected_wheel(6), directed_cycle(5), directed_path(4)):
            pairwise = [
                max_vertex_disjoint_paths(graph, source, target)
                for source in graph.nodes
                for target in graph.nodes
                if source != target and not graph.has_edge(source, target)
            ]
            assert vertex_connectivity(graph) == min(pairwise), graph.name

    def test_matches_networkx_on_random_graphs(self):
        networkx = pytest.importorskip("networkx")
        from repro.graphs.generators import random_bidirected_graph

        for seed in range(5):
            graph = random_bidirected_graph(7, 0.5, seed=seed)
            nx_graph = networkx.Graph()
            nx_graph.add_nodes_from(graph.nodes)
            nx_graph.add_edges_from({tuple(sorted(edge)) for edge in graph.to_undirected_edges()})
            expected = networkx.node_connectivity(nx_graph)
            assert vertex_connectivity(graph) == expected

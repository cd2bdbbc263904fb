"""Unit tests for the graph generators (including the Figure 1 graphs)."""

from __future__ import annotations

import pytest

from repro.exceptions import GraphError
from repro.graphs.generators import (
    bidirected_complete,
    bidirected_cycle,
    bidirected_star,
    bidirected_wheel,
    clique_with_feeders,
    complete_digraph,
    directed_cycle,
    directed_path,
    directed_sensor_field,
    figure_1a,
    layered_relay_digraph,
    random_bidirected_graph,
    random_digraph,
    random_k_out_digraph,
    relabel,
    star_out,
    two_cliques_bridged,
)
from repro.graphs.properties import is_complete


class TestElementaryFamilies:
    def test_complete_digraph(self):
        clique = complete_digraph(5)
        assert clique.num_nodes == 5
        assert clique.num_edges == 20
        assert is_complete(clique)

    def test_directed_cycle(self):
        cycle = directed_cycle(4)
        assert cycle.num_edges == 4
        assert cycle.is_strongly_connected()

    def test_directed_path(self):
        path = directed_path(4)
        assert path.num_edges == 3
        assert not path.is_strongly_connected()

    def test_bidirected_cycle_and_star_and_wheel(self):
        assert bidirected_cycle(5).num_edges == 10
        assert bidirected_star(5).num_edges == 8
        wheel = bidirected_wheel(6)
        assert wheel.num_edges == 2 * (5 + 5)
        assert wheel.is_bidirectional()

    def test_star_out(self):
        star = star_out(4)
        assert star.out_degree(0) == 3
        assert star.in_degree(0) == 0

    def test_bidirected_complete_name(self):
        graph = bidirected_complete(4)
        assert is_complete(graph)
        assert "undirected" in graph.name

    def test_invalid_sizes_raise(self):
        with pytest.raises(GraphError):
            complete_digraph(0)
        with pytest.raises(GraphError):
            directed_cycle(1)
        with pytest.raises(GraphError):
            bidirected_wheel(3)
        with pytest.raises(GraphError):
            star_out(1)


class TestFigureGraphs:
    def test_figure_1a_shape(self):
        graph = figure_1a()
        assert graph.num_nodes == 5
        assert graph.is_bidirectional()
        assert graph.num_edges == 16  # 8 undirected edges
        assert all(graph.out_degree(node) >= 3 for node in graph.nodes)

    def test_figure_1b_shape(self, fig1b):
        assert fig1b.num_nodes == 14
        intra = 2 * 2 * 21  # both cliques, both directions
        assert fig1b.num_edges == intra + 8
        # The eight inter-clique edges are exactly the documented ones.
        inter = [(u, v) for u, v in fig1b.edges if u[0] != v[0]]
        assert len(inter) == 8
        assert ("w1", "v1") in inter and ("v7", "w7") in inter

    def test_two_cliques_bridged_parametric(self):
        graph = two_cliques_bridged(4, 2, 3)
        assert graph.num_nodes == 8
        inter = [(u, v) for u, v in graph.edges if u[0] != v[0]]
        assert len(inter) == 5

    def test_two_cliques_bridged_validation(self):
        with pytest.raises(GraphError):
            two_cliques_bridged(3, 4, 0)


class TestRandomFamilies:
    def test_random_digraph_is_seeded(self):
        a = random_digraph(8, 0.3, seed=5)
        b = random_digraph(8, 0.3, seed=5)
        assert set(a.edges) == set(b.edges)

    def test_random_digraph_connected_option(self):
        graph = random_digraph(8, 0.0, seed=1, ensure_connected=True)
        assert graph.is_strongly_connected()

    def test_random_digraph_probability_bounds(self):
        with pytest.raises(GraphError):
            random_digraph(5, 1.5)

    def test_random_bidirected(self):
        graph = random_bidirected_graph(6, 1.0, seed=0)
        assert is_complete(graph)
        assert random_bidirected_graph(6, 0.0, seed=0).num_edges == 0

    def test_random_k_out(self):
        graph = random_k_out_digraph(7, 3, seed=2)
        assert all(graph.out_degree(node) == 3 for node in graph.nodes)
        with pytest.raises(GraphError):
            random_k_out_digraph(4, 4)


class TestStructuredFamilies:
    def test_clique_with_feeders(self):
        graph = clique_with_feeders(4, 2)
        assert graph.num_nodes == 6
        assert graph.out_degree("s0") == 1
        assert graph.in_degree("s0") == 4

    def test_layered_relay_digraph(self):
        graph = layered_relay_digraph(3, 3)
        assert graph.num_nodes == 9
        assert graph.is_strongly_connected()

    def test_directed_sensor_field(self):
        graph = directed_sensor_field(3, 3)
        assert graph.num_nodes == 9
        assert graph.has_edge("s0_0", "s0_1") and graph.has_edge("s0_1", "s0_0")

    def test_sensor_field_long_range(self):
        graph = directed_sensor_field(3, 3, long_range_every=4)
        assert graph.has_edge("s1_0", "s0_0")

    def test_invalid_structured_sizes(self):
        with pytest.raises(GraphError):
            clique_with_feeders(0, 1)
        with pytest.raises(GraphError):
            layered_relay_digraph(0, 2)
        with pytest.raises(GraphError):
            directed_sensor_field(0, 3)


class TestTransformations:
    def test_relabel_with_mapping(self):
        graph = directed_path(3)
        renamed = relabel(graph, {0: "a", 1: "b", 2: "c"})
        assert set(renamed.nodes) == {"a", "b", "c"}
        assert renamed.has_edge("a", "b")

    def test_relabel_with_callable(self):
        graph = directed_path(3)
        renamed = relabel(graph, lambda node: node + 10)
        assert set(renamed.nodes) == {10, 11, 12}

    def test_relabel_requires_injective_mapping(self):
        graph = directed_path(3)
        with pytest.raises(GraphError):
            relabel(graph, {0: "x", 1: "x", 2: "y"})

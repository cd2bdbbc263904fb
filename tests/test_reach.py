"""Unit tests for reach sets, reduced graphs, source components, propagation."""

from __future__ import annotations

import pytest

from repro.exceptions import NodeNotFoundError
from repro.graphs.bitset import BitsetIndex
from repro.graphs.digraph import DiGraph
from repro.graphs.generators import complete_digraph, directed_cycle
from repro.graphs.reach import (
    is_strongly_connected_subset,
    propagates,
    reach_set,
    reach_sets_for_all_nodes,
    reduced_graph,
    source_component,
    theorem5_holds_for,
)


class TestReachSets:
    def test_reach_contains_self(self, diamond):
        assert 3 in reach_set(diamond, 3)

    def test_reach_in_strongly_connected_graph_is_everything(self, diamond):
        assert reach_set(diamond, 0) == frozenset(diamond.nodes)

    def test_reach_excludes_faulty_and_cut_off(self):
        cycle = directed_cycle(5)
        # Removing node 1 cuts 0's only incoming chain at that point:
        # ancestors of 0 avoiding {1} are 2, 3, 4.
        assert reach_set(cycle, 0, {1}) == frozenset({0, 2, 3, 4})
        # Removing node 4 (0's only in-neighbour) isolates 0.
        assert reach_set(cycle, 0, {4}) == frozenset({0})

    def test_reach_on_dag(self):
        graph = DiGraph(edges=[(0, 1), (1, 2)])
        assert reach_set(graph, 2) == frozenset({0, 1, 2})
        assert reach_set(graph, 0) == frozenset({0})

    def test_node_cannot_be_excluded_from_own_reach(self, diamond):
        with pytest.raises(ValueError):
            reach_set(diamond, 0, {0})

    def test_missing_node_raises(self, diamond):
        with pytest.raises(NodeNotFoundError):
            reach_set(diamond, 99)

    def test_reach_sets_for_all_nodes_matches_single_queries(self, fig1a):
        excluded = {"v3"}
        batch = reach_sets_for_all_nodes(fig1a, excluded)
        for node in fig1a.nodes:
            if node in excluded:
                assert node not in batch
            else:
                assert batch[node] == reach_set(fig1a, node, excluded)

    def test_reach_cache(self, diamond):
        # Repeated queries are served by the graph's shared engine, memoised
        # on the canonical exclusion mask whatever iterable names the nodes.
        index = BitsetIndex.for_graph(diamond)
        index.clear_memos()
        first = reach_set(diamond, 3, {0})
        second = reach_set(diamond, 3, [0])
        assert first == second == frozenset({1, 2, 3})
        assert index.memo_sizes()["reach_exclusions"] == 1


class TestReducedGraphAndSourceComponent:
    def test_reduced_graph_removes_outgoing_only(self, diamond):
        reduced = reduced_graph(diamond, {0}, set())
        assert set(reduced.nodes) == set(diamond.nodes)
        assert not reduced.has_edge(0, 1)
        assert reduced.has_edge(3, 0)

    def test_source_component_of_clique(self):
        clique = complete_digraph(4)
        assert source_component(clique, {0}, set()) == frozenset({1, 2, 3})

    def test_source_component_symmetric_in_arguments(self, fig1a):
        assert source_component(fig1a, {"v2"}, {"v4"}) == source_component(fig1a, {"v4"}, {"v2"})

    def test_source_component_empty_when_no_root(self):
        # Two disjoint 2-cycles: nobody reaches everyone.
        graph = DiGraph(edges=[(0, 1), (1, 0), (2, 3), (3, 2)])
        assert source_component(graph, set(), set()) == frozenset()

    def test_source_component_is_strongly_connected(self, fig1a):
        component = source_component(fig1a, {"v1"}, {"v2"})
        assert component
        assert is_strongly_connected_subset(fig1a, component)

    def test_source_component_disjoint_from_fault_sets(self, fig1a):
        component = source_component(fig1a, {"v1"}, {"v2"})
        assert not (component & {"v1", "v2"})

    def test_source_component_cache(self, diamond):
        index = BitsetIndex.for_graph(diamond)
        index.clear_memos()
        assert source_component(diamond, {0}, set()) == source_component(diamond, set(), {0})
        assert index.memo_sizes()["source_components"] == 1  # keyed on the union


class TestPropagation:
    def test_propagation_to_empty_target_is_trivial(self, diamond):
        assert propagates(diamond, {0}, set(), set(diamond.nodes), f=5)

    def test_propagation_in_clique(self):
        clique = complete_digraph(5)
        everyone = set(clique.nodes)
        assert propagates(clique, {0, 1}, {4}, everyone, f=1)
        assert not propagates(clique, {0}, {4}, everyone, f=1)

    def test_propagation_requires_disjoint_sets(self, diamond):
        with pytest.raises(ValueError):
            propagates(diamond, {0}, {0, 1}, set(diamond.nodes), f=1)

    def test_propagation_requires_target_within_containment(self, diamond):
        with pytest.raises(ValueError):
            propagates(diamond, {0}, {3}, {0, 1}, f=0)

    def test_theorem5_on_figure_1a(self, fig1a):
        # Figure 1(a) satisfies 3-reach for f = 1, so Theorem 5 must hold for
        # every pair of candidate fault sets.
        assert theorem5_holds_for(fig1a, {"v2"}, {"v4"}, f=1)
        assert theorem5_holds_for(fig1a, {"v1"}, set(), f=1)

    def test_theorem5_fails_on_weak_graph(self):
        cycle = directed_cycle(5)
        # The directed cycle violates 3-reach for f = 1 and indeed the source
        # component loses its f+1 disjoint-path guarantee.
        assert not theorem5_holds_for(cycle, {0}, {1}, f=1)


class TestStrongConnectivityHelper:
    def test_subset_strong_connectivity(self, diamond):
        assert is_strongly_connected_subset(diamond, {0, 1, 2, 3})
        assert is_strongly_connected_subset(diamond, {1})
        assert not is_strongly_connected_subset(diamond, {1, 2})
        assert not is_strongly_connected_subset(diamond, set())

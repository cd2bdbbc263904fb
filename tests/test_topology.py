"""Unit tests for the shared TopologyKnowledge precomputation."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from _oracles import SubgraphTopology
from repro.algorithms.base import ConsensusConfig
from repro.algorithms.bw import BWProcess
from repro.algorithms.topology import PATH_POLICIES, TopologyKnowledge
from repro.exceptions import NodeNotFoundError, ProtocolError
from repro.graphs.digraph import DiGraph
from repro.graphs.generators import complete_digraph, directed_cycle, figure_1a
from repro.graphs.paths import is_redundant, is_simple
from repro.graphs.reach import reach_set, source_component


class TestConstruction:
    def test_invalid_policy_rejected(self):
        with pytest.raises(ProtocolError):
            TopologyKnowledge(complete_digraph(3), 1, path_policy="bogus")

    def test_negative_f_rejected(self):
        with pytest.raises(ProtocolError):
            TopologyKnowledge(complete_digraph(3), -1)

    def test_policies_exported(self):
        assert set(PATH_POLICIES) == {"redundant", "simple"}

    def test_fault_sets_enumeration(self):
        topology = TopologyKnowledge(complete_digraph(4), 1)
        assert len(topology.fault_sets) == 5  # empty set + 4 singletons
        assert all(len(candidate) <= 1 for candidate in topology.fault_sets)

    def test_fault_candidates_exclude_self(self):
        topology = TopologyKnowledge(complete_digraph(4), 1)
        for node in topology.nodes:
            assert all(node not in candidate for candidate in topology.fault_candidates[node])
        assert topology.thread_count(0) == 4


class TestRequiredPaths:
    def test_required_paths_end_at_node_and_avoid_fault_set(self):
        topology = TopologyKnowledge(complete_digraph(4), 1)
        paths = topology.required_paths(0, frozenset({3}))
        assert (0,) in paths
        assert all(path[-1] == 0 for path in paths)
        assert all(3 not in path for path in paths)
        assert all(is_redundant(path) for path in paths)

    def test_simple_policy_required_paths(self):
        topology = TopologyKnowledge(complete_digraph(4), 1, path_policy="simple")
        paths = topology.required_paths(0, frozenset())
        assert all(is_simple(path) for path in paths)
        # 1 trivial + 3 + 6 + 6 simple paths into node 0 of K4.
        assert len(paths) == 16

    def test_redundant_policy_superset_of_simple(self):
        redundant = TopologyKnowledge(complete_digraph(4), 1).required_paths(0, frozenset())
        simple = TopologyKnowledge(complete_digraph(4), 1, path_policy="simple").required_paths(
            0, frozenset()
        )
        assert simple < redundant

    def test_memoisation_returns_same_object(self):
        topology = TopologyKnowledge(complete_digraph(4), 1)
        assert topology.required_paths(0, frozenset({1})) is topology.required_paths(0, frozenset({1}))


class TestReachAndSourceComponents:
    def test_reach_matches_graph_module(self):
        graph = figure_1a()
        topology = TopologyKnowledge(graph, 1)
        assert topology.reach("v1", frozenset({"v3"})) == reach_set(graph, "v1", {"v3"})

    def test_source_component_matches_graph_module(self):
        graph = figure_1a()
        topology = TopologyKnowledge(graph, 1)
        assert topology.source_component({"v1"}, {"v2"}) == source_component(graph, {"v1"}, {"v2"})

    def test_source_component_keyed_on_union(self):
        graph = complete_digraph(4)
        topology = TopologyKnowledge(graph, 1)
        assert topology.source_component({0}, {1}) is topology.source_component({1}, {0})

    def test_simple_paths_within_reach(self):
        graph = figure_1a()
        topology = TopologyKnowledge(graph, 1)
        fault_set = frozenset({"v3"})
        per_origin = topology.simple_paths_within_reach("v1", fault_set)
        reach = topology.reach("v1", fault_set)
        assert set(per_origin) <= set(reach)
        for origin, paths in per_origin.items():
            for path in paths:
                assert path[0] == origin and path[-1] == "v1"
                assert set(path) <= set(reach)
        # The node itself is reachable by exactly its trivial path.
        assert per_origin["v1"] == (("v1",),)

    def test_cycle_reach_paths_unique(self):
        graph = directed_cycle(4)
        topology = TopologyKnowledge(graph, 1)
        per_origin = topology.simple_paths_within_reach(0, frozenset({2}))
        assert per_origin[3] == ((3, 0),)


class TestCostCounters:
    def test_precompute_all_counters(self, clique4_topology):
        counters = clique4_topology.precompute_all()
        assert counters["nodes"] == 4
        assert counters["threads"] == 16
        assert counters["required_paths"] > counters["threads"]
        assert counters["source_components"] >= 1
        # Section 4.2: redundant flooding grows much faster than the graph —
        # one more clique node multiplies the required paths by over 4.
        clique3 = TopologyKnowledge(complete_digraph(3), 1).precompute_all()
        assert counters["required_paths"] > 4 * clique3["required_paths"]

    def test_total_required_paths(self, clique4_topology):
        total = clique4_topology.total_required_paths(0)
        assert total == sum(
            len(clique4_topology.required_paths(0, fault_set))
            for fault_set in clique4_topology.fault_candidates[0]
        )

    def test_repr(self):
        assert "TopologyKnowledge" in repr(TopologyKnowledge(complete_digraph(3), 1))


class TestSharedEngineCaches:
    """Reach sets and source components come from the shared engine and are
    decoded once per run."""

    def test_repeated_queries_hit_the_memo(self):
        graph = complete_digraph(4)
        topology = TopologyKnowledge(graph, 1)
        first = topology.reach(0, frozenset({1}))
        assert topology.reach(0, {1}) is first
        assert first == reach_set(graph, 0, {1})
        component = topology.source_component({1}, {2})
        assert topology.source_component({2}, {1}) is component  # same union → same entry
        assert component == source_component(graph, {1}, {2})

    def test_bad_reach_queries_are_rejected(self):
        topology = TopologyKnowledge(complete_digraph(4), 1)
        with pytest.raises(NodeNotFoundError):
            topology.reach(9, frozenset())
        with pytest.raises(ValueError):
            topology.reach(0, frozenset({0}))
        # Queries keep working after a rejected one.
        assert topology.reach(0, frozenset({1})) == reach_set(
            complete_digraph(4), 0, {1}
        )

    def test_precompute_all_fills_the_source_memo(self):
        topology = TopologyKnowledge(complete_digraph(4), 1)
        counters = topology.precompute_all()
        unions = {f1 | f2 for f1 in topology.fault_sets for f2 in topology.fault_sets}
        assert counters["source_components"] == len(unions) == 11  # ∅, 4 singletons, 6 pairs
        component = topology.source_component({1}, {2})
        assert topology.precompute_all() == counters
        assert topology.source_component({2}, {1}) is component

    def test_reach_mask_matches_set_level_query(self):
        graph = figure_1a()
        topology = TopologyKnowledge(graph, 1)
        fault_set = frozenset({"v2"})
        mask = topology.reach_mask("v1", fault_set)
        assert topology.engine.nodes_of(mask) == topology.reach("v1", fault_set)


class TestThreadPlans:
    """Per-(node, F) thread state derived once per knowledge instance."""

    def test_thread_plan_matches_the_per_candidate_queries(self):
        topology = TopologyKnowledge(figure_1a(), 1)
        plan = topology.thread_plan("v1")
        assert [fault_set for fault_set, _, _ in plan] == topology.fault_candidates["v1"]
        for fault_set, fault_mask, required_count in plan:
            assert fault_mask == topology.engine.mask_of(fault_set)
            assert required_count == len(topology.required_paths("v1", fault_set))

    def test_fifo_wait_list_flattens_the_paths_in_reach(self):
        topology = TopologyKnowledge(figure_1a(), 1)
        fault_set = frozenset({"v3"})
        entries = topology.fifo_wait_list("v1", fault_set)
        expected = [
            (origin, path)
            for origin, paths in topology.simple_paths_within_reach("v1", fault_set).items()
            if origin != "v1"
            for path in paths
        ]
        # Entries key each path by its id in the shared path table.
        paths = topology.path_table().paths
        assert [(origin, paths[path_id]) for _, (origin, path_id), _ in entries] == expected
        first = {}
        for key, (origin, path_id), first_key in entries:
            assert key == (origin, fault_set, path_id)
            assert first_key == first.get(origin)
            first.setdefault(origin, key)
        # Origins follow the repr-sorted node order, not string hashing.
        origins = list(dict.fromkeys(origin for origin, _ in expected))
        assert origins == [node for node in topology.nodes if node in origins]

    def test_rounds_and_cells_sharing_knowledge_share_the_plans(self):
        from repro.algorithms.base import ConsensusConfig
        from repro.algorithms.bw import create_bw_processes
        from repro.network.delays import UniformDelay
        from repro.network.simulator import Simulator

        graph = complete_digraph(4)
        topology = TopologyKnowledge(graph, 1)
        served = {"thread_plan": {}, "fifo_wait_list": {}}
        for name, results in served.items():
            def recording(*args, _query=getattr(topology, name), _results=results):
                result = _query(*args)
                _results.setdefault(args, []).append(result)
                return result

            setattr(topology, name, recording)
        config = ConsensusConfig(f=1, epsilon=0.25, input_low=0.0, input_high=1.0)
        runs = []
        for seed in (1, 2):  # two cells on one knowledge instance
            processes = create_bw_processes(
                graph, {node: node / 3 for node in graph.nodes}, config, topology=topology
            )
            simulator = Simulator(graph, UniformDelay(0.5, 2.0), seed=seed)
            simulator.add_processes(processes.values())
            simulator.run(max_events=1_000_000)
            assert all(process.rounds_completed >= 2 for process in processes.values())
            runs.append(processes)
        for node in graph.nodes:
            assert runs[0][node]._thread_plan is runs[1][node]._thread_plan
        for results in served.values():
            assert results
            for returned in results.values():
                assert all(result is returned[0] for result in returned)
        # Every thread of every round of both cells scanned the same lists.
        assert max(len(returned) for returned in served["fifo_wait_list"].values()) > 2


@st.composite
def digraphs(draw):
    """Random digraphs on up to 8 nodes, sparse enough that every path
    enumeration of the oracle stays small."""
    n = draw(st.integers(2, 8))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    size = draw(st.integers(0, min(len(pairs), 3 * n)))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=size, max_size=size))
    return DiGraph(range(n), edges)


class TestMaskFiltersMatchTheSubgraphEnumerations:
    """Every ``(node, F)`` object, filtered from the node's one path
    enumeration, equals its enumeration in its own subgraph, order
    included; so does every honest path's record."""

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @example(graph=figure_1a(), f=1, policy="redundant")
    @example(graph=complete_digraph(5), f=2, policy="redundant")
    @given(graph=digraphs(), f=st.integers(0, 2), policy=st.sampled_from(PATH_POLICIES))
    def test_every_thread_object_and_path_record(self, graph, f, policy):
        knowledge = TopologyKnowledge(graph, f, policy)
        oracle = SubgraphTopology(graph, f, policy)
        assert knowledge.path_table().paths == oracle.table.paths
        for node in knowledge.nodes:
            assert knowledge.thread_plan(node) == oracle.thread_plan(node)
            index = knowledge.required_index(node)
            assert index == oracle.required_index(node)
            assert all(isinstance(fault_sets, tuple) for fault_sets in index.values())
            for fault_set in knowledge.fault_candidates[node]:
                assert knowledge.required_paths(node, fault_set) == oracle.required_paths(
                    node, fault_set
                )
                assert knowledge.required_path_ids(node, fault_set) == oracle.required_path_ids(
                    node, fault_set
                )
                within = knowledge.simple_paths_within_reach(node, fault_set)
                expected = oracle.simple_paths_within_reach(node, fault_set)
                assert list(within.items()) == list(expected.items())
                assert knowledge.fifo_wait_list(node, fault_set) == oracle.fifo_wait_list(
                    node, fault_set
                )
        config = ConsensusConfig(f=f, epsilon=0.25, path_policy=policy)
        process = BWProcess(knowledge.nodes[0], graph, 0.5, config, topology=knowledge)
        for path in oracle.table.paths:
            assert process._path_record(path)[:3] == oracle.path_record(path)

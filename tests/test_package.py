"""Package-level tests: exceptions hierarchy, public API surface, quickstart path."""

from __future__ import annotations


import repro
import repro.api
from repro import exceptions
from repro.graphs.generators import complete_digraph, figure_1a
from repro.runner.experiment import quick_consensus


class TestExceptionHierarchy:
    def test_all_exceptions_derive_from_repro_error(self):
        leaf_types = [
            exceptions.GraphError,
            exceptions.NodeNotFoundError,
            exceptions.EdgeNotFoundError,
            exceptions.InvalidPathError,
            exceptions.ConditionError,
            exceptions.InvalidFaultBoundError,
            exceptions.SimulationError,
            exceptions.SchedulerError,
            exceptions.ProtocolError,
            exceptions.InfeasibleTopologyError,
            exceptions.AdversaryError,
            exceptions.ExperimentError,
        ]
        for leaf in leaf_types:
            assert issubclass(leaf, exceptions.ReproError)

    def test_node_not_found_carries_node(self):
        error = exceptions.NodeNotFoundError("x")
        assert error.node == "x" and "x" in str(error)

    def test_edge_not_found_carries_endpoints(self):
        error = exceptions.EdgeNotFoundError(1, 2)
        assert (error.source, error.target) == (1, 2)

    def test_invalid_fault_bound_message(self):
        assert "-3" in str(exceptions.InvalidFaultBoundError(-3))


class TestPublicApi:
    def test_version_and_exports(self):
        assert repro.__version__
        for name in repro.api.__all__:
            assert hasattr(repro.api, name), name
        assert repro.api.quick_consensus is quick_consensus

    def test_quick_consensus_with_byzantine_node(self):
        graph = complete_digraph(4)
        outcome = quick_consensus(
            graph,
            {0: 0.0, 1: 0.25, 2: 0.75, 3: 1.0},
            f=1,
            epsilon=0.2,
            faulty_nodes={3},
            seed=5,
        )
        assert outcome.correct
        assert outcome.algorithm == "byzantine-witness"

    def test_quick_consensus_without_faults(self):
        graph = complete_digraph(4)
        outcome = quick_consensus(
            graph, {0: 0.1, 1: 0.2, 2: 0.3, 3: 0.4}, f=1, epsilon=0.1, seed=1
        )
        assert outcome.correct and not outcome.faulty_nodes

    def test_quick_consensus_on_figure_1a_simple_policy(self):
        graph = figure_1a()
        inputs = {node: index / 4 for index, node in enumerate(sorted(graph.nodes))}
        outcome = quick_consensus(
            graph, inputs, f=1, epsilon=0.3, faulty_nodes={"v5"}, path_policy="simple", seed=2
        )
        assert outcome.correct

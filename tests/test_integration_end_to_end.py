"""End-to-end integration tests spanning the whole stack.

They check that the main theorem's two directions are visible
*behaviourally* — the algorithm succeeds on 3-reach graphs under every
implemented attack, and consensus demonstrably fails on graphs violating the
condition — and that the paper's quantitative claims (geometric contraction,
round bound, message cost) hold on real runs.
"""

from __future__ import annotations

import pytest

from repro.adversary.adversary import FaultPlan
from repro.adversary.behaviors import EquivocateBehavior, STANDARD_BEHAVIOR_FACTORIES
from repro.algorithms.base import ConsensusConfig
from repro.algorithms.topology import TopologyKnowledge
from repro.analysis.convergence import all_within_bound
from repro.analysis.necessity import demonstrate_disagreement, find_violation
from repro.conditions.reach_conditions import check_three_reach
from repro.graphs.generators import complete_digraph, directed_cycle, figure_1a
from repro.runner.experiment import (
    run_bw_experiment,
    run_clique_experiment,
    run_iterative_experiment,
)
from repro.runner.harness import GridSpec, TopologySpec, spread_inputs
from repro.runner.session import ExperimentSession


@pytest.fixture(scope="module")
def clique_topology():
    topology = TopologyKnowledge(complete_digraph(4), 1, "redundant")
    topology.precompute_all()
    return topology


class TestSufficiencyDirection:
    """On 3-reach graphs, the algorithm satisfies Definition 1 under every attack."""

    def test_behavior_sweep_on_clique(self):
        spec = GridSpec(
            name="clique-behaviors",
            algorithms=("bw",),
            topologies=(TopologySpec.make("clique", n=4),),
            behaviors=tuple(STANDARD_BEHAVIOR_FACTORIES),
            seeds=(1, 2),
            path_policy="redundant",
        )
        result = ExperimentSession(spec).run()
        assert len(result.groups) == len(STANDARD_BEHAVIOR_FACTORIES)
        for group in result.groups:
            assert group.runs == 2
            assert group.success_rate == 1.0, group.behavior

    def test_round_bound_and_contraction(self, clique_topology):
        graph = complete_digraph(4)
        inputs = {0: 0.0, 1: 1.0, 2: 0.2, 3: 0.8}
        config = ConsensusConfig(f=1, epsilon=0.1, input_low=0.0, input_high=1.0)
        plan = FaultPlan(frozenset({2}), lambda node: STANDARD_BEHAVIOR_FACTORIES["equivocate"]())
        outcome = run_bw_experiment(graph, inputs, config, plan, seed=3, topology=clique_topology)
        assert outcome.correct
        assert outcome.rounds == config.rounds_needed() == 4
        assert all_within_bound(outcome.per_round_ranges, initial_range=1.0)

    def test_directed_figure_graph(self):
        graph = figure_1a()
        inputs = spread_inputs(graph, 0.0, 1.0)
        config = ConsensusConfig(
            f=1, epsilon=0.3, input_low=0.0, input_high=1.0, path_policy="simple"
        )
        plan = FaultPlan(frozenset({"v2"}), lambda node: STANDARD_BEHAVIOR_FACTORIES["fixed-high"]())
        outcome = run_bw_experiment(graph, inputs, config, plan, seed=4)
        assert outcome.correct
        # Lemma 15 holds on an incomplete directed graph too.
        assert all_within_bound(outcome.per_round_ranges, initial_range=1.0)

    @pytest.mark.parametrize("graph", [complete_digraph(4), figure_1a()], ids=lambda g: g.name)
    def test_redundant_paths_cost_more_than_simple_paths(self, graph):
        # Flooding-policy ablation: both policies satisfy Definition 1 here,
        # and the paper-faithful redundant paths flood strictly more.
        inputs = spread_inputs(graph, 0.0, 1.0)
        faulty = sorted(graph.nodes, key=repr)[-1]
        plan = FaultPlan(frozenset({faulty}), lambda node: EquivocateBehavior(default_offset=4.0))
        cost = {}
        for policy in ("redundant", "simple"):
            config = ConsensusConfig(
                f=1, epsilon=0.25, input_low=0.0, input_high=1.0, path_policy=policy
            )
            topology = TopologyKnowledge(graph, 1, policy)
            paths = topology.precompute_all()["required_paths"]
            outcome = run_bw_experiment(graph, inputs, config, plan, seed=11, topology=topology)
            assert outcome.correct, policy
            cost[policy] = (paths, outcome.messages_delivered)
        assert cost["redundant"][0] > cost["simple"][0]
        assert cost["redundant"][1] > cost["simple"][1]


class TestNecessityDirection:
    """On graphs violating 3-reach, consensus demonstrably fails."""

    def test_cycle_disagreement(self):
        graph = directed_cycle(6)
        assert not check_three_reach(graph, 1).holds
        violation = find_violation(graph, 1)
        result = demonstrate_disagreement(graph, violation, epsilon=1.0, rounds=12)
        assert result.convergence_violated


class TestBaselineComparison:
    """The headline comparison: BW works where the simple approaches break."""

    def test_bw_beats_unprotected_averaging(self, clique_topology):
        graph = complete_digraph(4)
        inputs = spread_inputs(graph, 0.0, 1.0)
        config = ConsensusConfig(f=1, epsilon=0.25, input_low=0.0, input_high=1.0)
        plan = FaultPlan(frozenset({3}), lambda node: STANDARD_BEHAVIOR_FACTORIES["fixed-high"]())
        protected = run_bw_experiment(graph, inputs, config, plan, seed=1, topology=clique_topology)
        from repro.runner.experiment import run_local_average_experiment

        unprotected = run_local_average_experiment(
            graph, inputs, config, rounds=6, faulty_nodes={3},
            byzantine_value=lambda n, r, k, v: 1e6,
        )
        assert protected.correct
        assert not unprotected.validity

    def test_bw_and_iterative_agree_when_both_apply(self, clique_topology):
        graph = complete_digraph(4)
        inputs = spread_inputs(graph, 0.0, 1.0)
        config = ConsensusConfig(f=1, epsilon=0.25, input_low=0.0, input_high=1.0)
        plan = FaultPlan(frozenset({1}), lambda node: STANDARD_BEHAVIOR_FACTORIES["fixed-low"]())
        bw = run_bw_experiment(graph, inputs, config, plan, seed=2, topology=clique_topology)
        iterative = run_iterative_experiment(
            graph, inputs, config, rounds=20, faulty_nodes={1},
            byzantine_value=lambda n, r, k, v: -1e6,
        )
        clique = run_clique_experiment(graph, inputs, config, plan, seed=2)
        assert bw.correct and iterative.correct and clique.correct
        # The message-complexity gap is the point of the comparison: BW
        # floods paths, the iterative baseline sends one value per edge and
        # the clique baseline it generalizes uses direct channels only.
        assert bw.messages_delivered > iterative.messages_delivered
        assert bw.messages_delivered > clique.messages_delivered

    def test_success_rate_aggregation(self, clique_topology):
        graph = complete_digraph(4)
        inputs = spread_inputs(graph, 0.0, 1.0)
        config = ConsensusConfig(f=1, epsilon=0.25, input_low=0.0, input_high=1.0)
        outcomes = [
            run_bw_experiment(graph, inputs, config, seed=seed, topology=clique_topology)
            for seed in (1, 2, 3)
        ]
        assert all(outcome.correct for outcome in outcomes)

"""Tests for the baseline algorithms (clique, iterative, crash-tolerant, control)."""

from __future__ import annotations

import pytest

from repro.adversary.adversary import FaultPlan, no_faults
from repro.adversary.behaviors import (
    STANDARD_BEHAVIOR_FACTORIES,
    CrashBehavior,
    EquivocateBehavior,
)
from repro.algorithms.base import ConsensusConfig
from repro.algorithms.baselines.abraham import AbrahamCliqueProcess, create_clique_processes
from repro.algorithms.baselines.crash_async import create_crash_processes
from repro.algorithms.baselines.iterative import (
    messages_per_round,
    rounds_to_epsilon,
    run_iterative_consensus,
    trimmed_mean_update,
)
from repro.algorithms.baselines.local_average import (
    mean_update,
    run_local_average,
    validity_violation,
)
from repro.algorithms.baselines.synchronous import run_synchronous_rounds
from repro.exceptions import InfeasibleTopologyError, ProtocolError
from repro.graphs.generators import complete_digraph, directed_cycle, figure_1a
from repro.network.delays import UniformDelay
from repro.network.simulator import Simulator
from repro.runner.experiment import run_clique_experiment


def run_async_processes(graph, processes, faulty, behavior, seed=1):
    plan = FaultPlan(frozenset(faulty), lambda node: behavior()) if faulty else no_faults()
    wrapped = plan.apply(processes)
    simulator = Simulator(graph, UniformDelay(0.5, 2.0), seed=seed)
    simulator.add_processes(wrapped.values())
    simulator.run(max_events=500_000)
    return {node: processes[node] for node in graph.nodes if node not in set(faulty)}


class TestCliqueBaseline:
    INPUTS = {0: 0.0, 1: 1.0, 2: 0.3, 3: 0.7}

    def _run(self, faulty=(), behavior=None, n=4, f=1, epsilon=0.2):
        graph = complete_digraph(n)
        inputs = {node: self.INPUTS.get(node, 0.5) for node in graph.nodes}
        config = ConsensusConfig(f=f, epsilon=epsilon, input_low=0.0, input_high=1.0)
        processes = create_clique_processes(graph, inputs, config)
        honest = run_async_processes(graph, processes, faulty, behavior)
        return honest, config, inputs

    def test_fault_free_agreement(self):
        honest, config, inputs = self._run()
        outputs = [process.output for process in honest.values()]
        assert all(process.decided for process in honest.values())
        assert max(outputs) - min(outputs) < config.epsilon

    def test_tolerates_equivocating_node(self):
        honest, config, inputs = self._run(faulty={3}, behavior=lambda: EquivocateBehavior({0: -9.0, 1: 9.0}))
        outputs = [process.output for process in honest.values()]
        assert max(outputs) - min(outputs) < config.epsilon
        assert all(0.0 <= value <= 1.0 for value in outputs)

    def test_tolerates_crash(self):
        honest, config, inputs = self._run(faulty={2}, behavior=CrashBehavior)
        assert all(process.decided for process in honest.values())

    def test_strict_check_rejects_incomplete_graph(self):
        config = ConsensusConfig(f=1, epsilon=0.2, strict_topology_check=True)
        with pytest.raises(InfeasibleTopologyError):
            AbrahamCliqueProcess(0, directed_cycle(4), 0.5, config)

    def test_strict_check_rejects_too_small_clique(self):
        config = ConsensusConfig(f=1, epsilon=0.2, strict_topology_check=True)
        with pytest.raises(InfeasibleTopologyError):
            AbrahamCliqueProcess(0, complete_digraph(3), 0.5, config)

    def test_missing_inputs_rejected(self):
        config = ConsensusConfig(f=1, epsilon=0.2)
        with pytest.raises(ProtocolError):
            create_clique_processes(complete_digraph(3), {0: 0.5}, config)

    def test_zero_round_configuration(self):
        graph = complete_digraph(4)
        config = ConsensusConfig(f=1, epsilon=5.0, input_low=0.0, input_high=1.0)
        processes = create_clique_processes(graph, {n: 0.5 for n in graph.nodes}, config)
        honest = run_async_processes(graph, processes, (), None)
        assert all(process.output == 0.5 for process in honest.values())


class TestCliqueBaselineAgreementLimit:
    """The clique baseline leaves out the witness bookkeeping of Abraham,
    Amit and Dolev, and at ``n = 3f + 1`` that can cost ε-agreement: on
    these inputs, at simulator seed 1, two honest nodes decide 1.0 and the
    third 0.4, a range of 0.6 > ε after the baseline's two rounds.  (Seeds
    2 and 3 agree.)"""

    @pytest.mark.xfail(
        strict=True,
        reason="the baseline omits the witness bookkeeping its convergence "
        "proof needs; at n = 3f + 1 these runs end 0.6 apart",
    )
    @pytest.mark.parametrize("behavior", ["fixed-high", "equivocate", "offset"])
    def test_epsilon_agreement_at_n_equal_3f_plus_1(self, behavior):
        plan = FaultPlan(
            frozenset({3}), lambda node: STANDARD_BEHAVIOR_FACTORIES[behavior](), seed=1
        )
        outcome = run_clique_experiment(
            complete_digraph(4),
            {0: 0.0, 1: 1.0, 2: 0.4, 3: 0.6},
            ConsensusConfig(f=1, epsilon=0.3, input_low=0.0, input_high=1.0),
            plan,
            seed=1,
        )
        assert outcome.epsilon_agreement


class TestCrashBaseline:
    def test_crash_tolerant_on_figure_1a(self):
        graph = figure_1a()
        inputs = {"v1": 0.0, "v2": 1.0, "v3": 0.5, "v4": 0.25, "v5": 0.75}
        config = ConsensusConfig(f=1, epsilon=0.2, input_low=0.0, input_high=1.0)
        processes = create_crash_processes(graph, inputs, config)
        honest = run_async_processes(graph, processes, {"v5"}, CrashBehavior)
        outputs = [process.output for process in honest.values()]
        assert all(process.decided for process in honest.values())
        assert max(outputs) - min(outputs) < config.epsilon
        assert all(0.0 <= value <= 1.0 for value in outputs)

    def test_crash_tolerant_without_faults_on_clique(self):
        graph = complete_digraph(5)
        inputs = {node: node / 4 for node in graph.nodes}
        config = ConsensusConfig(f=2, epsilon=0.3, input_low=0.0, input_high=1.0)
        processes = create_crash_processes(graph, inputs, config)
        honest = run_async_processes(graph, processes, (), None)
        outputs = [process.output for process in honest.values()]
        assert max(outputs) - min(outputs) < config.epsilon

    def test_strict_check_requires_two_reach(self):
        config = ConsensusConfig(f=1, epsilon=0.2, strict_topology_check=True)
        with pytest.raises(InfeasibleTopologyError):
            create_crash_processes(directed_cycle(5), {n: 0.0 for n in range(5)}, config)

    def test_missing_inputs_rejected(self):
        config = ConsensusConfig(f=1, epsilon=0.2)
        with pytest.raises(ProtocolError):
            create_crash_processes(complete_digraph(3), {0: 0.1}, config)


class TestSynchronousEngine:
    def test_round_count_and_states(self):
        graph = complete_digraph(3)
        trace = run_synchronous_rounds(
            graph, {0: 0.0, 1: 1.0, 2: 0.5}, rounds=3,
            update_rule=lambda node, own, received, r: own,
        )
        assert trace.rounds == 3
        assert len(trace.states) == 4
        assert trace.nonfaulty_range(0) == 1.0

    def test_faulty_nodes_do_not_update(self):
        graph = complete_digraph(3)
        trace = run_synchronous_rounds(
            graph, {0: 0.0, 1: 1.0, 2: 0.5}, rounds=2,
            update_rule=lambda node, own, received, r: 9.9,
            faulty_nodes={2},
        )
        assert trace.states[-1][2] == 0.5
        assert trace.final_outputs() == {0: 9.9, 1: 9.9}

    def test_byzantine_value_callback_controls_messages(self):
        graph = complete_digraph(3)
        seen = []

        def update(node, own, received, round_index):
            seen.append(dict(received))
            return own

        run_synchronous_rounds(
            graph, {0: 0.0, 1: 1.0, 2: 0.5}, rounds=1, update_rule=update,
            faulty_nodes={2}, byzantine_value=lambda node, receiver, r, value: None,
        )
        assert all(2 not in inbox for inbox in seen)

    def test_validation(self):
        graph = complete_digraph(3)
        with pytest.raises(ProtocolError):
            run_synchronous_rounds(graph, {0: 0.0}, 1, lambda n, o, r, i: o)
        with pytest.raises(ProtocolError):
            run_synchronous_rounds(graph, {0: 0.0, 1: 0.0, 2: 0.0}, -1, lambda n, o, r, i: o)


class TestIterativeBaseline:
    def test_trimmed_mean_update_discards_extremes(self):
        received = {1: 100.0, 2: 0.4, 3: 0.6, 4: -100.0}
        assert trimmed_mean_update(0.5, received, f=1) == pytest.approx(0.5)

    def test_trimmed_mean_keeps_everything_when_f_zero(self):
        received = {1: 1.0, 2: 0.0}
        assert trimmed_mean_update(0.5, received, f=0) == pytest.approx(0.5)

    def test_trimmed_mean_rejects_negative_f(self):
        with pytest.raises(ProtocolError):
            trimmed_mean_update(0.5, {}, f=-1)

    def test_iterative_converges_on_clique_with_byzantine(self):
        graph = complete_digraph(5)
        inputs = {node: node / 4 for node in graph.nodes}
        trace = run_iterative_consensus(
            graph, inputs, f=1, rounds=25, faulty_nodes={4},
            byzantine_value=lambda node, receiver, r, value: 1e3,
        )
        final = list(trace.final_outputs().values())
        assert max(final) - min(final) < 0.05
        assert all(0.0 <= value <= 0.75 + 1e-9 for value in final)

    def test_rounds_to_epsilon(self):
        graph = complete_digraph(4)
        inputs = {node: float(node % 2) for node in graph.nodes}
        trace = run_iterative_consensus(graph, inputs, f=0, rounds=15)
        hit = rounds_to_epsilon(trace, 0.01)
        assert hit is not None and 0 < hit <= 15
        no_rounds = run_iterative_consensus(graph, inputs, f=0, rounds=0)
        assert rounds_to_epsilon(no_rounds, 0.5) is None

    def test_messages_per_round(self):
        assert messages_per_round(complete_digraph(4)) == 12


class TestLocalAverageControl:
    def test_converges_without_faults(self):
        graph = complete_digraph(4)
        inputs = {node: float(node) for node in graph.nodes}
        trace = run_local_average(graph, inputs, rounds=10)
        final = list(trace.final_outputs().values())
        assert max(final) - min(final) < 1e-6

    def test_single_byzantine_destroys_validity(self):
        graph = complete_digraph(4)
        inputs = {0: 0.0, 1: 0.5, 2: 1.0, 3: 0.5}
        trace = run_local_average(
            graph, inputs, rounds=10, faulty_nodes={3},
            byzantine_value=lambda node, receiver, r, value: 1e6,
        )
        damage = validity_violation(trace, input_low=0.0, input_high=1.0)
        assert damage > 100.0

    def test_mean_update(self):
        assert mean_update(0.0, {1: 1.0}) == pytest.approx(0.5)
        assert mean_update(2.0, {}) == pytest.approx(2.0)

    def test_validity_violation_zero_when_within_range(self):
        graph = complete_digraph(3)
        trace = run_local_average(graph, {0: 0.2, 1: 0.4, 2: 0.6}, rounds=3)
        assert validity_violation(trace, 0.0, 1.0) == 0.0

"""Tests for the experiment runner: metrics, drivers, sweeps, reporting."""

from __future__ import annotations

import gc

import pytest

from repro.adversary.adversary import FaultPlan
from repro.adversary.behaviors import (
    ByzantineBehavior,
    CrashBehavior,
    FixedValueBehavior,
    HonestBehavior,
)
from repro.algorithms.base import ConsensusConfig
from repro.algorithms.bw import create_bw_processes
from repro.algorithms.topology import TopologyKnowledge
from repro.analysis.convergence import all_within_bound
from repro.exceptions import AdversaryError, ExperimentError
from repro.graphs.generators import complete_digraph, figure_1a
from repro.network.delays import CongestionDelay, UniformDelay
from repro.network.faults import make_faults
from repro.network.simulator import Simulator
from repro.registry import BEHAVIORS
from repro.runner.algorithms import resolve_behavior_factory
from repro.runner.experiment import (
    run_bw_experiment,
    run_clique_experiment,
    run_crash_experiment,
    run_iterative_experiment,
    run_local_average_experiment,
)
from repro.runner.harness import random_inputs, spread_inputs
from repro.runner.metrics import ConsensusOutcome, per_round_ranges
from repro.runner.reporting import banner, format_table, print_table
from repro.runner.scenarios import get_scenario, run_cell


class TestMetrics:
    def _outcome(self, outputs, decided=True, epsilon=0.2):
        return ConsensusOutcome(
            algorithm="test",
            graph_name="g",
            f=1,
            epsilon=epsilon,
            faulty_nodes=frozenset({9}),
            honest_inputs={0: 0.0, 1: 1.0},
            outputs=outputs,
            all_decided=decided,
            rounds=3,
        )

    def test_output_range_and_agreement(self):
        outcome = self._outcome({0: 0.5, 1: 0.6})
        assert outcome.output_range == pytest.approx(0.1)
        assert outcome.epsilon_agreement
        assert not self._outcome({0: 0.0, 1: 0.9}).epsilon_agreement

    def test_undecided_outcome(self):
        outcome = self._outcome({0: 0.5}, decided=False)
        assert outcome.output_range == float("inf")
        assert not outcome.termination and not outcome.correct

    def test_validity(self):
        assert self._outcome({0: 0.5, 1: 0.55}).validity
        assert not self._outcome({0: -0.5, 1: 0.5}).validity

    def test_summary_text(self):
        text = self._outcome({0: 0.5, 1: 0.55}).summary()
        assert "test on g" in text and "rounds=3" in text

    def test_per_round_ranges(self):
        histories = {0: [0.0, 0.25, 0.4], 1: [1.0, 0.75, 0.5], 2: [0.5, 0.5]}
        assert per_round_ranges(histories) == [1.0, 0.5]
        assert per_round_ranges({}) == []

    def test_geometric_bound(self):
        # Lemma 15's K / 2^r bound has one owner, repro.analysis.convergence.
        assert all_within_bound([1.0, 0.5, 0.2], 1.0)
        assert not all_within_bound([1.0, 0.8], 1.0)


#: The drivers that run through ``_simulate``, by registered algorithm name.
SIMULATED_DRIVERS = {
    "bw": run_bw_experiment,
    "clique": run_clique_experiment,
    "crash": run_crash_experiment,
}
#: Arguments for the behaviours whose parameters are required.
REQUIRED_BEHAVIOR_ARGS = {"crash-after": "5", "fixed": "9.0"}


def _behavior_spec(name: str) -> str:
    if BEHAVIORS.entry(name).metadata["min_params"] == 0:
        return name
    return f"{name}:{REQUIRED_BEHAVIOR_ARGS[name]}"


def _default_network(graph):
    return {}


def _churn(graph):
    schedule = make_faults("churn:0.5,4").build(graph, 1)
    assert schedule.active
    return {"faults": schedule}


def _congestion(graph):
    delay_model = CongestionDelay(slope=0.2)
    assert delay_model.needs_link_load  # the simulator binds its load probe
    return {"delay_model": delay_model}


#: (driver, behaviour spec, network options) for every registered consensus
#: algorithm that runs through ``_simulate`` crossed with every registered
#: behaviour (each acts on payloads generically, so every pair applies),
#: plus one BW run under churn and one under the load-probing delay model.
GARBAGE_GUARD_RUNS = [
    pytest.param(driver, _behavior_spec(behavior), _default_network, id=f"{name}-{behavior}")
    for name, driver in SIMULATED_DRIVERS.items()
    for behavior in BEHAVIORS.names()
] + [
    pytest.param(run_bw_experiment, "crash", _churn, id="bw-churn"),
    pytest.param(run_bw_experiment, "fixed-high", _congestion, id="bw-congestion"),
]


class TestDrivers:
    GRAPH = complete_digraph(4)
    INPUTS = {0: 0.0, 1: 1.0, 2: 0.4, 3: 0.6}
    CONFIG = ConsensusConfig(f=1, epsilon=0.3, input_low=0.0, input_high=1.0)

    def test_bw_driver(self):
        plan = FaultPlan(frozenset({3}), lambda node: FixedValueBehavior(9.0))
        outcome = run_bw_experiment(self.GRAPH, self.INPUTS, self.CONFIG, plan, seed=1)
        assert outcome.correct
        assert outcome.algorithm == "byzantine-witness"
        assert outcome.messages_delivered > 0
        assert outcome.per_round_ranges

    def test_bw_driver_without_faults(self):
        outcome = run_bw_experiment(self.GRAPH, self.INPUTS, self.CONFIG, seed=2)
        assert outcome.correct and not outcome.faulty_nodes

    def test_clique_driver(self):
        plan = FaultPlan(frozenset({2}), lambda node: CrashBehavior())
        outcome = run_clique_experiment(self.GRAPH, self.INPUTS, self.CONFIG, plan, seed=1)
        assert outcome.correct
        assert outcome.algorithm == "clique-baseline"

    def test_crash_driver(self):
        plan = FaultPlan(frozenset({1}), lambda node: CrashBehavior())
        outcome = run_crash_experiment(self.GRAPH, self.INPUTS, self.CONFIG, plan, seed=1)
        assert outcome.correct

    def test_iterative_driver(self):
        outcome = run_iterative_experiment(
            self.GRAPH, self.INPUTS, self.CONFIG, rounds=20,
            faulty_nodes={3}, byzantine_value=lambda n, r, k, v: 100.0,
        )
        assert outcome.algorithm == "iterative-trimmed-mean"
        assert outcome.correct

    def test_local_average_driver_shows_byzantine_damage(self):
        outcome = run_local_average_experiment(
            self.GRAPH, self.INPUTS, self.CONFIG, rounds=10,
            faulty_nodes={3}, byzantine_value=lambda n, r, k, v: 1e6,
        )
        assert not outcome.validity

    @pytest.mark.parametrize("run_experiment, behavior, network", GARBAGE_GUARD_RUNS)
    def test_finished_runs_leave_no_cyclic_garbage(self, run_experiment, behavior, network):
        # Every run unbinds each process (a Byzantine wrapper's inner one too)
        # and a load-probing delay model when it ends, so the simulator,
        # processes, message sets and event heap are freed by reference
        # counting alone.  _simulate pauses the collector on that premise.
        factory = resolve_behavior_factory(behavior)
        plan = FaultPlan(frozenset({3}), lambda node: factory(), seed=1)

        def run():
            return run_experiment(
                self.GRAPH, self.INPUTS, self.CONFIG, plan, seed=1, **network(self.GRAPH)
            )

        run()  # warm every cache
        gc.collect()
        gc.disable()
        try:
            outcome = run()
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert outcome.all_decided

    def test_missing_inputs_raise(self):
        with pytest.raises(ExperimentError):
            run_bw_experiment(self.GRAPH, {0: 0.0}, self.CONFIG)

    def test_fault_plan_over_budget_rejected(self):
        plan = FaultPlan(frozenset({0, 1}), lambda node: CrashBehavior())
        with pytest.raises(AdversaryError):
            run_bw_experiment(self.GRAPH, self.INPUTS, self.CONFIG, plan)


class _RaisingBehavior(ByzantineBehavior):
    """Lets a few sends through, then fails mid-run."""

    def __init__(self) -> None:
        self.sends = 0

    def on_send(self, sender, receiver, payload, rng):
        self.sends += 1
        if self.sends > 3:
            raise RuntimeError("behaviour failed mid-run")
        return [payload]


class TestCollectorPause:
    GRAPH = TestDrivers.GRAPH
    INPUTS = TestDrivers.INPUTS
    CONFIG = TestDrivers.CONFIG
    PLAN = FaultPlan(frozenset({3}), lambda node: FixedValueBehavior(9.0))

    @pytest.fixture
    def collections(self):
        """Generations of the automatic collections that start while the
        test runs, with the collector on and the young generation empty."""
        seen = []

        def hook(phase, info):
            if phase == "start":
                seen.append(info["generation"])

        was_enabled = gc.isenabled()
        gc.enable()
        gc.collect()
        gc.callbacks.append(hook)
        try:
            yield seen
        finally:
            gc.callbacks.remove(hook)
            if not was_enabled:
                gc.disable()

    def test_no_collection_runs_during_a_bw_run(self, collections):
        topology = TopologyKnowledge(self.GRAPH, self.CONFIG.f, self.CONFIG.path_policy)
        gc.collect()
        collections.clear()
        outcome = run_bw_experiment(
            self.GRAPH, self.INPUTS, self.CONFIG, self.PLAN, seed=1, topology=topology
        )
        assert collections == []
        assert outcome.correct and outcome.messages_delivered > 1000

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    def test_the_collector_is_left_as_it_was(self, enabled):
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            run_bw_experiment(self.GRAPH, self.INPUTS, self.CONFIG, self.PLAN, seed=1)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()

    def test_the_collector_is_back_on_after_a_run_raises(self, collections):
        plan = FaultPlan(frozenset({3}), lambda node: _RaisingBehavior())
        with pytest.raises(RuntimeError, match="mid-run"):
            run_bw_experiment(self.GRAPH, self.INPUTS, self.CONFIG, plan, seed=1)
        assert gc.isenabled()


class TestHarness:
    def test_input_generators(self):
        graph = figure_1a()
        random_values = random_inputs(graph, 0.0, 1.0, seed=1)
        assert set(random_values) == set(graph.nodes)
        assert random_inputs(graph, 0.0, 1.0, seed=1) == random_values
        spread = spread_inputs(graph, 0.0, 1.0)
        assert min(spread.values()) == 0.0 and max(spread.values()) == 1.0
        assert spread_inputs(complete_digraph(1), 0.3, 0.9) == {0: 0.3}


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2], ["xxx", "y"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1  # all rows same width

    def test_banner_and_print_table(self, capsys):
        assert "title" in banner("title")
        output = print_table("My table", ["h"], [[1]])
        captured = capsys.readouterr()
        assert "My table" in captured.out and "My table" in output


class TestStopOnDecision:
    """A run ends after the event on which the last honest node decides."""

    @staticmethod
    def _stop_point(graph, faulty, behavior, policy):
        nodes = list(graph.nodes)
        inputs = {node: index / (len(nodes) - 1) for index, node in enumerate(nodes)}
        config = ConsensusConfig(
            f=1, epsilon=0.25, input_low=0.0, input_high=1.0, path_policy=policy
        )
        plan = FaultPlan(frozenset(faulty), lambda node: behavior(), seed=3)
        outcome = run_bw_experiment(graph, inputs, config, plan, seed=3)
        assert outcome.all_decided
        return outcome.messages_delivered, outcome.messages_sent, outcome.simulated_time

    def test_bw_runs_stop_on_the_same_event_as_a_per_event_check(self):
        # Pinned from run_bw_experiment when it polled "every honest node
        # decided" after every event.
        graph = figure_1a()
        assert self._stop_point(
            graph, [list(graph.nodes)[1]], lambda: FixedValueBehavior(1.0), "simple"
        ) == (913, 933, 27.307883154567072)
        assert self._stop_point(
            complete_digraph(5), [4], HonestBehavior, "redundant"
        ) == (52114, 52448, 43.05204748631636)

    def test_honest_nodes_deciding_in_on_start_still_deliver_one_message(self):
        # A sparse G(7, 0.3) cell at f = 2 whose honest nodes all finish
        # their rounds in on_start: as with the per-event check, the run
        # ends after the first delivery, not before it.
        spec = get_scenario("phase_density").grid(quick=False)
        cell = spec.expand()[138]
        result = run_cell(spec, cell)
        assert (result.messages, result.simulated_time) == (1, 0.5003471529049336)

    def test_a_faulty_nodes_inner_decision_does_not_count(self):
        graph = complete_digraph(4)
        config = ConsensusConfig(f=1, epsilon=0.25, input_low=0.0, input_high=1.0)
        honest_nodes = [0, 1, 2]

        def run(until_decided):
            processes = create_bw_processes(graph, {node: node / 3 for node in graph.nodes}, config)
            plan = FaultPlan(frozenset([3]), lambda node: HonestBehavior(), seed=0)
            simulator = Simulator(graph, UniformDelay(0.5, 2.0), seed=0)
            wrapped = plan.apply(processes)
            after_each = []
            for process in wrapped.values():
                deliver = process.on_message

                def recording(sender, payload, deliver=deliver):
                    deliver(sender, payload)
                    all_honest = all(processes[node].decided for node in honest_nodes)
                    after_each.append((all_honest, processes[3].decided))

                process.on_message = recording
            simulator.add_processes(wrapped.values())
            return simulator.run(until_decided=until_decided), after_each

        _, free_running = run(None)
        honest_done = [all_honest for all_honest, _ in free_running].index(True) + 1
        inner_done = [inner for _, inner in free_running].index(True) + 1
        # Node 3's inner BW process decides well before the honest nodes do.
        assert inner_done < honest_done
        stats, after_each = run(honest_nodes)
        assert stats.delivered_messages == len(after_each) == honest_done
        assert not stats.terminated_early
        # The wrapper reports its inner process's decision for node 3.
        stats, _ = run([3])
        assert stats.delivered_messages == inner_done


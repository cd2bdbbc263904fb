"""Tests for the experiment runner: metrics, drivers, sweeps, reporting."""

from __future__ import annotations

import pytest

from repro.adversary.adversary import FaultPlan
from repro.adversary.behaviors import CrashBehavior, FixedValueBehavior
from repro.algorithms.base import ConsensusConfig
from repro.exceptions import AdversaryError, ExperimentError
from repro.graphs.generators import complete_digraph, figure_1a
from repro.runner.experiment import (
    run_bw_experiment,
    run_clique_experiment,
    run_crash_experiment,
    run_iterative_experiment,
    run_local_average_experiment,
)
from repro.runner.harness import random_inputs, spread_inputs
from repro.runner.metrics import (
    ConsensusOutcome,
    aggregate_success_rate,
    geometric_bound_satisfied,
    per_round_ranges,
    rounds_until,
)
from repro.runner.reporting import banner, format_table, print_table


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
        assert geometric_bound_satisfied([1.0, 0.5, 0.2], 1.0)
        assert not geometric_bound_satisfied([1.0, 0.8], 1.0)

    def test_rounds_until(self):
        assert rounds_until([1.0, 0.4, 0.1], 0.2) == 2
        assert rounds_until([1.0, 0.4], 0.2) is None

    def test_aggregate_success_rate(self):
        good = self._outcome({0: 0.5, 1: 0.55})
        bad = self._outcome({0: 0.0, 1: 0.9})
        assert aggregate_success_rate([good, bad]) == 0.5
        assert aggregate_success_rate([]) == 0.0


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

    def test_missing_inputs_raise(self):
        with pytest.raises(ExperimentError):
            run_bw_experiment(self.GRAPH, {0: 0.0}, self.CONFIG)

    def test_fault_plan_over_budget_rejected(self):
        plan = FaultPlan(frozenset({0, 1}), lambda node: CrashBehavior())
        with pytest.raises(AdversaryError):
            run_bw_experiment(self.GRAPH, self.INPUTS, self.CONFIG, plan)


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

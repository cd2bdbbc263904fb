"""Experiments C1 / V1 — convergence rate and Definition 1 under attack.

Lemma 15 bounds the nonfaulty value range by ``K / 2^r`` after ``r`` rounds
and the termination rule runs ``⌊log2(K/ε)⌋ + 1`` rounds.  The benchmark runs
the full Byzantine-Witness protocol under a sweep of Byzantine behaviours,
records the measured per-round range next to the theoretical bound, and
asserts convergence / validity / termination for every run.
"""

from __future__ import annotations

import pytest

from repro.adversary.adversary import FaultPlan
from repro.adversary.behaviors import STANDARD_BEHAVIOR_FACTORIES
from repro.algorithms.base import ConsensusConfig
from repro.algorithms.topology import TopologyKnowledge
from repro.analysis.convergence import convergence_table
from repro.graphs.generators import complete_digraph, figure_1a
from repro.runner.artifacts import write_artifact
from repro.runner.experiment import run_bw_experiment
from repro.runner.harness import spread_inputs
from repro.runner.reporting import format_table
from repro.runner.scenarios import get_scenario
from repro.runner.session import ExperimentSession

CLIQUE = complete_digraph(4)
CLIQUE_TOPOLOGY = TopologyKnowledge(CLIQUE, 1, "redundant")
FIG1A = figure_1a()


@pytest.mark.benchmark(group="convergence")
def test_per_round_range_vs_theoretical_bound(benchmark, write_result):
    inputs = {0: 0.0, 1: 1.0, 2: 0.25, 3: 0.75}
    config = ConsensusConfig(f=1, epsilon=0.05, input_low=0.0, input_high=1.0)
    plan = FaultPlan(frozenset({3}), lambda node: STANDARD_BEHAVIOR_FACTORIES["equivocate"]())

    def run():
        return run_bw_experiment(CLIQUE, inputs, config, plan, seed=7, topology=CLIQUE_TOPOLOGY)

    outcome = benchmark.pedantic(run, rounds=1, iterations=1)
    table = convergence_table(outcome.per_round_ranges, initial_range=1.0)
    rows = [
        [row.round_index, f"{row.measured_range:.6f}", f"{row.theoretical_bound:.6f}",
         "yes" if row.within_bound else "no"]
        for row in table
    ]
    write_result(
        "convergence_lemma15",
        format_table(["round", "measured U[r]-mu[r]", "bound K/2^r", "within"], rows),
    )

    assert outcome.correct
    assert outcome.rounds == config.rounds_needed() == 5
    assert all(row.within_bound for row in table)


@pytest.mark.benchmark(group="convergence")
def test_definition1_under_behavior_sweep(benchmark, write_result, results_dir):
    """The full ``definition1`` scenario grid through the sweep engine."""
    spec = get_scenario("definition1").grid()

    result = benchmark.pedantic(lambda: ExperimentSession(spec).run(), rounds=1, iterations=1)

    rows = [
        [cell.behavior, cell.seed,
         "inf" if cell.output_range is None else f"{cell.output_range:.4f}",
         "yes" if cell.metrics["epsilon_agreement"] else "no",
         "yes" if cell.metrics["validity"] else "no",
         cell.rounds, cell.messages]
        for cell in result.cells
    ]
    write_result(
        "definition1_sweep",
        format_table(["behavior", "seed", "range", "agree", "valid", "rounds", "messages"], rows),
    )
    write_artifact(results_dir / "definition1.full.json", result, mode="full")
    # Every behaviour in the library is defeated: Definition 1 holds per run.
    assert len(result.cells) == len(STANDARD_BEHAVIOR_FACTORIES) * 2
    assert all(cell.success for cell in result.cells)


@pytest.mark.benchmark(group="convergence")
def test_directed_graph_convergence(benchmark, write_result):
    inputs = spread_inputs(FIG1A, 0.0, 1.0)
    config = ConsensusConfig(
        f=1, epsilon=0.2, input_low=0.0, input_high=1.0, path_policy="simple"
    )
    plan = FaultPlan(frozenset({"v3"}), lambda node: STANDARD_BEHAVIOR_FACTORIES["fixed-low"]())

    def run():
        return run_bw_experiment(FIG1A, inputs, config, plan, seed=9)

    outcome = benchmark.pedantic(run, rounds=1, iterations=1)
    table = convergence_table(outcome.per_round_ranges, initial_range=1.0)
    rows = [[row.round_index, f"{row.measured_range:.6f}", f"{row.theoretical_bound:.6f}"]
            for row in table]
    write_result("convergence_figure1a", format_table(["round", "measured", "bound"], rows))
    assert outcome.correct
    assert all(row.within_bound for row in table)

"""Experiments B1 / B2 — the Byzantine-Witness algorithm versus the baselines.

B1: on complete graphs (the setting of Abraham et al. [1]) compare BW with
the clique baseline it generalizes — same guarantees, higher message cost
(flooding over paths versus direct channels); BW's value is that it also
works on incomplete 3-reach digraphs where the clique algorithm does not
apply at all.

B2: compare against the iterative trimmed-mean baseline (related work
[13, 25]) and the crash-tolerant 2-reach baseline, plus the unprotected
averaging control that a single Byzantine node destroys.
"""

from __future__ import annotations

import pytest

from repro.adversary.adversary import FaultPlan
from repro.adversary.behaviors import EquivocateBehavior, FixedValueBehavior
from repro.algorithms.base import ConsensusConfig
from repro.algorithms.topology import TopologyKnowledge
from repro.graphs.generators import complete_digraph, figure_1a
from repro.runner.artifacts import write_artifact
from repro.runner.experiment import run_bw_experiment, run_clique_experiment
from repro.runner.harness import spread_inputs
from repro.runner.reporting import format_table, render_sweep_groups
from repro.runner.scenarios import get_scenario
from repro.runner.session import ExperimentSession

CLIQUE = complete_digraph(4)
CLIQUE_TOPOLOGY = TopologyKnowledge(CLIQUE, 1, "redundant")
CONFIG = ConsensusConfig(f=1, epsilon=0.25, input_low=0.0, input_high=1.0)
INPUTS = spread_inputs(CLIQUE, 0.0, 1.0)
BYZANTINE_PLAN = FaultPlan(frozenset({3}), lambda node: FixedValueBehavior(1e6))


def _outcome_row(label, outcome):
    return [
        label,
        f"{outcome.output_range:.4f}" if outcome.output_range != float("inf") else "inf",
        "yes" if outcome.epsilon_agreement else "no",
        "yes" if outcome.validity else "no",
        outcome.rounds,
        outcome.messages_delivered,
    ]


@pytest.mark.benchmark(group="baselines")
def test_clique_comparison_b1(benchmark, write_result):
    """B1: BW vs the complete-graph baseline under the same Byzantine attack."""

    def run_both():
        bw = run_bw_experiment(CLIQUE, INPUTS, CONFIG, BYZANTINE_PLAN, seed=1,
                               topology=CLIQUE_TOPOLOGY)
        clique = run_clique_experiment(CLIQUE, INPUTS, CONFIG, BYZANTINE_PLAN, seed=1)
        return bw, clique

    bw, clique = benchmark.pedantic(run_both, rounds=1, iterations=1)
    write_result(
        "baselines_b1_clique",
        format_table(
            ["algorithm", "range", "agree", "valid", "rounds", "messages"],
            [_outcome_row("byzantine-witness", bw), _outcome_row("clique-baseline (AAD-style)", clique)],
        ),
    )
    assert bw.correct and clique.correct
    # Expected shape: both succeed; the generality of BW costs messages.
    assert bw.messages_delivered > clique.messages_delivered


@pytest.mark.benchmark(group="baselines")
def test_algorithm_zoo_b2(benchmark, write_result, results_dir):
    """B2: the full ``baselines_zoo`` + ``crash_baseline`` scenario grids."""
    zoo_spec = get_scenario("baselines_zoo").grid()
    crash_spec = get_scenario("crash_baseline").grid()

    zoo, crash = benchmark.pedantic(
        lambda: (ExperimentSession(zoo_spec).run(), ExperimentSession(crash_spec).run()), rounds=1, iterations=1
    )

    write_result(
        "baselines_b2_zoo",
        render_sweep_groups("baselines_zoo", zoo.groups)
        + render_sweep_groups("crash_baseline", crash.groups),
    )
    write_artifact(results_dir / "baselines_zoo.full.json", zoo, mode="full")
    write_artifact(results_dir / "crash_baseline.full.json", crash, mode="full")

    by_algorithm = {}
    for cell in zoo.cells:
        by_algorithm.setdefault(cell.algorithm, []).append(cell)
    # Expected shape: every fault-tolerant algorithm succeeds on every seed,
    # the unprotected control loses validity, the crash baseline rides out
    # crash faults, and BW is the most message-hungry by far.
    for algorithm in ("bw", "clique", "iterative"):
        assert all(cell.success for cell in by_algorithm[algorithm]), algorithm
    assert all(not cell.metrics["validity"] for cell in by_algorithm["local-average"])
    assert all(cell.success for cell in crash.cells)
    assert max(cell.messages for cell in by_algorithm["bw"]) == max(
        cell.messages for cell in zoo.cells
    )


@pytest.mark.benchmark(group="baselines")
def test_bw_works_where_clique_baseline_does_not_apply(benchmark, write_result):
    """The point of the generalization: an incomplete 3-reach digraph."""
    graph = figure_1a()
    inputs = spread_inputs(graph, 0.0, 1.0)
    config = ConsensusConfig(f=1, epsilon=0.25, input_low=0.0, input_high=1.0,
                             path_policy="simple")
    plan = FaultPlan(frozenset({"v4"}), lambda node: EquivocateBehavior(default_offset=5.0))

    def run():
        return run_bw_experiment(graph, inputs, config, plan, seed=3)

    outcome = benchmark.pedantic(run, rounds=1, iterations=1)
    write_result(
        "baselines_incomplete_graph",
        format_table(
            ["algorithm", "graph", "range", "agree", "valid", "rounds", "messages"],
            [["byzantine-witness", graph.name] + _outcome_row("", outcome)[1:]],
        ),
    )
    assert outcome.correct

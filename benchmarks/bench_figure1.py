"""Experiment F1a / F1b — reproduce the claims of Figure 1.

Figure 1(a): 5-node undirected graph, Byzantine exact consensus feasible for
f = 1; all-pair RMT available (κ = 3 = 2f+1); removing any edge breaks both.

Figure 1(b): two 7-node cliques plus eight directed edges, f = 2; the pair
(v1, w1) is connected by only 2f = 4 vertex-disjoint paths (all-pair RMT
impossible) yet 3-reach — and therefore asynchronous Byzantine approximate
consensus — holds.
"""

from __future__ import annotations

import pytest

from repro.conditions.reach_conditions import check_three_reach, max_tolerable_f
from repro.graphs.flow import max_vertex_disjoint_paths
from repro.graphs.generators import figure_1a, figure_1b
from repro.graphs.properties import critical_edges_for_connectivity, undirected_vertex_connectivity
from repro.runner.artifacts import write_artifact
from repro.runner.reporting import format_table, render_sweep_groups
from repro.runner.scenarios import get_scenario
from repro.runner.session import ExperimentSession


@pytest.mark.benchmark(group="figure1")
def test_figure_1a_claims(benchmark, write_result):
    graph = figure_1a()

    def evaluate():
        return {
            "kappa": undirected_vertex_connectivity(graph),
            "three_reach_f1": check_three_reach(graph, 1).holds,
            "three_reach_f2": check_three_reach(graph, 2).holds,
            "max_f": max_tolerable_f(graph, k=3),
            "critical_edges": len(critical_edges_for_connectivity(graph, threshold=3)),
        }

    facts = benchmark.pedantic(evaluate, rounds=1, iterations=1)
    rows = [[key, value] for key, value in facts.items()]
    write_result("figure1a", format_table(["fact", "value"], rows))

    assert facts["kappa"] == 3                # κ(G) = 3 > 2f for f = 1
    assert facts["three_reach_f1"] is True    # feasible for f = 1
    assert facts["three_reach_f2"] is False   # but not for f = 2
    assert facts["max_f"] == 1
    assert facts["critical_edges"] == 8       # every edge is critical


@pytest.mark.benchmark(group="figure1")
def test_figure_1b_claims(benchmark, write_result):
    graph = figure_1b()

    def evaluate():
        return {
            "n": graph.num_nodes,
            "edges": graph.num_edges,
            "disjoint_v1_w1": max_vertex_disjoint_paths(graph, "v1", "w1"),
            "three_reach_f2": check_three_reach(graph, 2).holds,
            "three_reach_f3": check_three_reach(graph, 3).holds,
        }

    facts = benchmark.pedantic(evaluate, rounds=1, iterations=1)
    rows = [[key, value] for key, value in facts.items()]
    write_result("figure1b", format_table(["fact", "value"], rows))

    assert facts["n"] == 14
    # Only 2f = 4 disjoint (v1, w1)-paths → all-pair RMT impossible ...
    assert facts["disjoint_v1_w1"] == 4
    # ... yet the tight condition for consensus holds at f = 2 and stops at f = 3.
    assert facts["three_reach_f2"] is True
    assert facts["three_reach_f3"] is False


@pytest.mark.benchmark(group="figure1")
def test_figure1_consensus_scenarios(benchmark, write_result, results_dir):
    """The Figure 1 graphs as sweep-engine consensus workloads.

    Figure 1(a): the Byzantine-Witness algorithm defeats every swept
    behaviour (the graph satisfies 3-reach for f=1).  Figure 1(b): the
    synchronous baselines — which ignore the paper's machinery — cannot
    ride out f=2 on the two-clique graph in general, the separation the
    paper's algorithm exists to close.
    """
    spec_a = get_scenario("figure1a").grid()
    spec_b = get_scenario("figure1b").grid()

    result_a, result_b = benchmark.pedantic(
        lambda: (ExperimentSession(spec_a).run(), ExperimentSession(spec_b).run()), rounds=1, iterations=1
    )

    write_artifact(results_dir / "figure1a.full.json", result_a, mode="full")
    write_artifact(results_dir / "figure1b.full.json", result_b, mode="full")
    write_result(
        "figure1_scenarios",
        render_sweep_groups("figure1a", result_a.groups)
        + render_sweep_groups("figure1b", result_b.groups),
    )

    assert result_a.success_rate == 1.0
    assert result_b.success_rate < 1.0

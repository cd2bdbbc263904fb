"""Quickstart: Byzantine approximate consensus on a small directed network.

Runs the paper's Byzantine-Witness algorithm on the 4-node complete digraph
with one equivocating Byzantine node, prints the per-round state values of
the honest nodes, and checks the three properties of Definition 1.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.adversary.adversary import FaultPlan
from repro.adversary.behaviors import EquivocateBehavior
from repro.algorithms.base import ConsensusConfig
from repro.conditions.reach_conditions import check_three_reach
from repro.graphs.generators import complete_digraph
from repro.runner.experiment import run_bw_experiment
from repro.runner.reporting import print_table


def main() -> None:
    # 1. The communication network: every node can talk to every other node.
    graph = complete_digraph(4)
    f = 1

    # 2. The tight feasibility condition of the paper (Theorem 4).
    report = check_three_reach(graph, f)
    print(report.describe())
    assert report.holds, "the quickstart graph tolerates one Byzantine node"

    # 3. Inputs: every node starts with its own estimate in [0, 1].
    inputs = {0: 0.10, 1: 0.90, 2: 0.40, 3: 0.55}

    # 4. The adversary: node 3 tells different lies to different neighbours.
    plan = FaultPlan(
        faulty_nodes=frozenset({3}),
        behavior_factory=lambda node: EquivocateBehavior({0: -5.0, 1: +5.0}, default_offset=1.0),
    )

    # 5. Run the protocol: agreement within epsilon = 0.1.
    config = ConsensusConfig(f=f, epsilon=0.1, input_low=0.0, input_high=1.0)
    outcome = run_bw_experiment(graph, inputs, config, plan, seed=42)

    # 6. Inspect the result.
    print()
    print(outcome.summary())
    print_table(
        "Per-round honest value range (Lemma 15 bounds it by K/2^r)",
        ["round", "U[r] - mu[r]", "K / 2^r"],
        [
            [index, f"{observed:.6f}", f"{1.0 / (2 ** index):.6f}"]
            for index, observed in enumerate(outcome.per_round_ranges)
        ],
    )
    print_table(
        "Honest outputs",
        ["node", "input", "output"],
        [[node, inputs[node], f"{value:.6f}"] for node, value in sorted(outcome.outputs.items())],
    )
    assert outcome.correct, "Definition 1 must hold on a 3-reach graph"
    print("convergence, validity and termination all hold — as Theorem 4 promises.")


if __name__ == "__main__":
    main()

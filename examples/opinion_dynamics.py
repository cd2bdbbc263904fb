"""Opinion dynamics with stubborn manipulators (Hegselmann–Krause flavoured).

Opinion-dynamics models are another application the paper cites: agents
repeatedly average the opinions they hear and, absent manipulation, converge
to a shared consensus opinion.  A manipulator ("troll") that reports extreme
opinions can stall or hijack that process.  This example contrasts three
update rules on the same asymmetric follower graph:

* unprotected averaging (hijacked by the troll),
* the iterative trimmed-mean rule of the related work (robust but needs a
  denser graph and more rounds),
* the Byzantine-Witness algorithm (works on any 3-reach digraph).

Run with:  python examples/opinion_dynamics.py
"""

from __future__ import annotations

from repro.adversary.adversary import FaultPlan
from repro.adversary.behaviors import FixedValueBehavior
from repro.algorithms.base import ConsensusConfig
from repro.conditions.reach_conditions import check_three_reach
from repro.graphs.generators import complete_digraph, relabel
from repro.runner.experiment import (
    run_bw_experiment,
    run_iterative_experiment,
    run_local_average_experiment,
)
from repro.runner.reporting import print_table

#: Opinions live on a [-1, +1] axis.
OPINIONS = {"alice": -0.8, "bob": -0.2, "carol": 0.1, "dave": 0.6, "eve": 0.9}
TROLL = "eve"
EPSILON = 0.2


def main() -> None:
    # A follower clique relabelled with readable names (opinion exchange is
    # mutual here; the other examples showcase genuinely one-way topologies).
    graph = relabel(complete_digraph(len(OPINIONS)), dict(enumerate(OPINIONS)))
    graph.name = "opinion-network"
    assert check_three_reach(graph, 1).holds

    config = ConsensusConfig(
        f=1, epsilon=EPSILON, input_low=-1.0, input_high=1.0, path_policy="simple"
    )

    unprotected = run_local_average_experiment(
        graph, OPINIONS, config, rounds=12, faulty_nodes={TROLL},
        byzantine_value=lambda node, receiver, round_index, value: 50.0,
    )
    iterative = run_iterative_experiment(
        graph, OPINIONS, config, rounds=12, faulty_nodes={TROLL},
        byzantine_value=lambda node, receiver, round_index, value: 50.0,
    )
    plan = FaultPlan(frozenset({TROLL}), lambda node: FixedValueBehavior(50.0))
    witness = run_bw_experiment(graph, OPINIONS, config, plan, seed=5)

    honest = [name for name in OPINIONS if name != TROLL]
    print_table(
        "Final opinions of honest agents (troll keeps shouting +50)",
        ["agent", "initial", "unprotected", "iterative trimmed-mean", "byzantine-witness"],
        [
            [name, OPINIONS[name],
             f"{unprotected.outputs[name]:.3f}",
             f"{iterative.outputs[name]:.3f}",
             f"{witness.outputs[name]:.3f}"]
            for name in honest
        ],
    )
    print(f"unprotected validity: {unprotected.validity}")
    print(f"iterative   validity: {iterative.validity}   ε-agreement: {iterative.epsilon_agreement}")
    print(f"witness     validity: {witness.validity}   ε-agreement: {witness.epsilon_agreement}")

    assert not unprotected.validity
    assert iterative.correct
    assert witness.correct
    print("the troll moves the unprotected opinions outside the honest range; both "
          "robust rules keep the honest opinions together and inside it.")


if __name__ == "__main__":
    main()

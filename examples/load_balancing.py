"""Load balancing: approximate agreement on the cluster-wide average load.

Cybenko-style diffusion load balancing (one of the classical applications of
approximate consensus cited by the paper) needs every server to agree —
approximately — on the target load before shedding work.  A single Byzantine
server reporting a absurdly low load would normally make everyone dump work
onto it.  This example compares:

* plain (unprotected) load averaging, which the Byzantine server wrecks, and
* the Byzantine-Witness algorithm, which keeps every honest server's target
  inside the honest load range.

Run with:  python examples/load_balancing.py
"""

from __future__ import annotations

from repro.adversary.adversary import FaultPlan
from repro.adversary.behaviors import FixedValueBehavior
from repro.algorithms.base import ConsensusConfig
from repro.graphs.generators import complete_digraph
from repro.runner.experiment import run_bw_experiment, run_local_average_experiment
from repro.runner.reporting import print_table

LOADS = {0: 62.0, 1: 85.0, 2: 70.0, 3: 55.0, 4: 78.0}
FAULTY_SERVER = 4
EPSILON = 2.0


def main() -> None:
    graph = complete_digraph(len(LOADS))
    config = ConsensusConfig(
        f=1, epsilon=EPSILON, input_low=0.0, input_high=100.0, path_policy="simple"
    )

    # --- unprotected averaging ------------------------------------------------
    unprotected = run_local_average_experiment(
        graph,
        LOADS,
        config,
        rounds=8,
        faulty_nodes={FAULTY_SERVER},
        byzantine_value=lambda node, receiver, round_index, value: -10_000.0,
        behavior_name="fixed -10000",
    )

    # --- Byzantine-Witness ----------------------------------------------------
    plan = FaultPlan(frozenset({FAULTY_SERVER}), lambda node: FixedValueBehavior(-10_000.0))
    protected = run_bw_experiment(graph, LOADS, config, plan, seed=11)

    honest_loads = [load for node, load in LOADS.items() if node != FAULTY_SERVER]
    print_table(
        "Target load agreed by each honest server",
        ["server", "current load", "unprotected target", "BW target"],
        [
            [node, LOADS[node],
             f"{unprotected.outputs[node]:.1f}", f"{protected.outputs[node]:.1f}"]
            for node in sorted(protected.outputs)
        ],
    )
    print(f"honest load range: [{min(honest_loads)}, {max(honest_loads)}]")
    print(f"unprotected averaging valid?   {unprotected.validity}")
    print(f"Byzantine-Witness valid?       {protected.validity}")
    print(f"Byzantine-Witness ε-agreement? {protected.epsilon_agreement} (ε = {EPSILON})")

    assert not unprotected.validity, "the unprotected average is dragged far below zero"
    assert protected.correct, "BW keeps every honest target inside the honest range"


if __name__ == "__main__":
    main()

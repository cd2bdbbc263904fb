"""Sensor fusion over an asymmetric radio network (paper's wireless motivation).

The introduction motivates directed communication graphs with wireless nodes
whose transmission ranges differ: a low-power sensor can hear the base
cluster but not always talk back to everyone.  This example builds such a
network (a well-connected core cluster plus weak "feeder" sensors), gives
every sensor a noisy temperature reading, compromises one core node, and runs
the Byzantine-Witness algorithm so every honest sensor converges to a fused
estimate that provably stays inside the range of honest readings.

Run with:  python examples/sensor_fusion.py
"""

from __future__ import annotations

import random

from repro.adversary.adversary import FaultPlan
from repro.adversary.behaviors import FixedValueBehavior
from repro.algorithms.base import ConsensusConfig
from repro.conditions.reach_conditions import check_three_reach, max_tolerable_f
from repro.graphs.generators import clique_with_feeders
from repro.runner.experiment import run_bw_experiment
from repro.runner.reporting import print_table

TRUE_TEMPERATURE = 21.5
SENSOR_NOISE = 0.8
EPSILON = 0.5
FAULTS = 1


def main() -> None:
    rng = random.Random(7)

    # A 4-node base cluster (bidirectional links) plus 2 weak sensors that
    # mostly listen — a genuinely *directed* topology.
    graph = clique_with_feeders(core_size=4, feeders=2)
    print(graph.summary())
    print(f"maximum tolerable Byzantine faults (3-reach): {max_tolerable_f(graph, k=3)}")
    assert check_three_reach(graph, FAULTS).holds

    # Noisy readings around the true temperature.
    readings = {
        node: TRUE_TEMPERATURE + rng.uniform(-SENSOR_NOISE, SENSOR_NOISE)
        for node in graph.nodes
    }
    low = min(readings.values()) - 0.01
    high = max(readings.values()) + 0.01

    # One compromised core node reports an absurd reading to trigger a false alarm.
    plan = FaultPlan(frozenset({"c2"}), lambda node: FixedValueBehavior(250.0))

    config = ConsensusConfig(
        f=FAULTS, epsilon=EPSILON, input_low=low, input_high=high, path_policy="simple"
    )
    outcome = run_bw_experiment(graph, readings, config, plan, seed=3)

    print()
    print(outcome.summary())
    print_table(
        "Fused temperature estimates (honest sensors)",
        ["sensor", "raw reading", "fused estimate"],
        [
            [node, f"{readings[node]:.3f}", f"{value:.3f}"]
            for node, value in sorted(outcome.outputs.items())
        ],
    )
    honest_readings = [readings[node] for node in outcome.outputs]
    assert outcome.correct
    assert min(honest_readings) <= min(outcome.outputs.values())
    assert max(outcome.outputs.values()) <= max(honest_readings)
    print(
        "the compromised sensor claimed 250.0°C but every honest estimate stays "
        f"within [{min(honest_readings):.2f}, {max(honest_readings):.2f}] and within "
        f"ε = {EPSILON} of the others."
    )


if __name__ == "__main__":
    main()

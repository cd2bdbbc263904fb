"""BW in lockstep with a literal Algorithm 1 (``tests/_oracles.py``).

:class:`BWProcess` parks waiting threads, memoises Completeness verdicts,
keys its bookkeeping by path ids and skips the evaluations it can show to
be idle.  :class:`LiteralBW` does none of that: it re-evaluates every
thread of the current round on every receipt.  These tests run both on one
graph, fault placement, Byzantine behaviour and message schedule, and after
every delivery assert that the two sent the same multiset of messages and
that every honest node is in the same round with the same decision.

The Byzantine nodes run once, as BW processes wrapped by their behaviour,
and feed both worlds.  The schedule is built from the fast node's sends;
the literal node's equal sends travel with them.  Most draws use a delay
keyed on the message itself, so a change in the order of a node's sends
does not change the schedule.
"""

from __future__ import annotations

import heapq
import json
import random
import zlib
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Tuple

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from _oracles import LiteralBW
from repro.adversary.adversary import FaultPlan
from repro.algorithms.base import ConsensusConfig
from repro.algorithms.bw import create_bw_processes
from repro.algorithms.messages import CompleteMessage
from repro.algorithms.topology import TopologyKnowledge
from repro.conditions.reach_conditions import check_three_reach
from repro.network.delays import (
    DelayModel,
    JitteredPerReceiverDelay,
    TargetedDelay,
    UniformDelay,
)
from repro.network.node import Context
from repro.runner.algorithms import resolve_behavior_factory, resolve_placement
from repro.runner.harness import TopologySpec, spread_inputs
from repro.runner.scenarios import get_scenario

#: Deliveries after which a case stops even if some node has not decided.
MAX_DELIVERIES = 6000


def canonical(payload) -> str:
    """The content of a protocol message, rendered independently of string
    hashing (a fault set is a frozenset, whose order is not fixed)."""
    if isinstance(payload, CompleteMessage):
        return repr(
            (
                payload.round,
                payload.origin,
                sorted(map(repr, payload.fault_set)),
                payload.values,
                payload.fifo_counter,
                payload.path,
            )
        )
    return repr(payload)


class MessageKeyedDelay(DelayModel):
    """A latency in ``[low, high]`` that is a fixed function of the link and
    the message content: sends made in another order keep their latencies."""

    def __init__(self, low: float = 0.5, high: float = 2.0) -> None:
        self.low = low
        self.high = high

    def delay(self, sender, receiver, payload, time, rng) -> float:
        digest = zlib.crc32(repr((sender, receiver, canonical(payload))).encode())
        return self.low + (self.high - self.low) * digest / 2**32


@dataclass(frozen=True)
class Case:
    """One lockstep run: a graph, a configuration, a fault plan, a schedule."""

    topology: TopologySpec
    f: int
    path_policy: str
    epsilon: float
    faulty: Tuple
    behavior: str
    delay: str
    seed: int
    slow_edges: Tuple = ()

    def delay_model(self) -> DelayModel:
        if self.delay == "keyed":
            return MessageKeyedDelay()
        if self.delay == "jittered":
            return JitteredPerReceiverDelay()
        if self.delay == "targeted":
            return TargetedDelay(self.slow_edges, 6.0, fast_model=MessageKeyedDelay())
        return UniformDelay(0.5, 2.0)  # a sweep cell's schedule, drawn in send order

    @classmethod
    def sweep_cell(cls, scenario: str, index: int) -> "Case":
        """The run of one BW cell of a scenario's quick grid: same graph,
        inputs, placement, behaviour and delays (drawn in the fast node's
        send order, as the simulator draws them)."""
        grid = get_scenario(scenario).grid(quick=True)
        cell = grid.expand()[index]
        assert cell.algorithm == "bw" and grid.inputs == "spread"
        topology = cell.resolved_topology
        graph = topology.build()
        faulty = resolve_placement(cell.placement, graph, cell.f, seed=cell.derived_seed)
        return cls(
            topology, cell.f, grid.path_policy, grid.epsilon, tuple(sorted(faulty, key=repr)),
            cell.behavior, "uniform", cell.derived_seed,
        )


def _context(graph, node, outbox) -> Context:
    return Context(
        node_id=node,
        out_neighbors=graph.successors(node),
        in_neighbors=graph.predecessors(node),
        send=lambda sender, receiver, payload: outbox.append((sender, receiver, payload)),
        set_timer=lambda owner, delay, tag: None,
        clock=lambda: 0.0,
        send_many=lambda sender, receivers, payload: outbox.extend(
            (sender, receiver, payload) for receiver in receivers
        ),
        decided=lambda node: None,
    )


def run_lockstep(case: Case) -> Tuple[int, float]:
    """Run ``case`` in both worlds, asserting agreement after the start and
    after every delivery, until every honest node decided or nothing is in
    flight; returns the number of deliveries and the time of the last one."""
    graph = case.topology.build()
    config = ConsensusConfig(
        f=case.f, epsilon=case.epsilon, input_low=0.0, input_high=1.0,
        path_policy=case.path_policy,
    )
    inputs = spread_inputs(graph, 0.0, 1.0)
    topology = TopologyKnowledge(graph, config.f, config.path_policy)
    factory = resolve_behavior_factory(case.behavior)
    plan = FaultPlan(frozenset(case.faulty), lambda node: factory(), seed=case.seed)
    network = plan.apply(create_bw_processes(graph, inputs, config, topology=topology))
    honest = sorted(plan.nonfaulty(graph.nodes), key=repr)
    literal = {node: LiteralBW(node, graph, inputs[node], config) for node in honest}
    fast_sent, literal_sent = [], []
    for node, process in network.items():
        process.bind(_context(graph, node, fast_sent))
    for node, process in literal.items():
        process.bind(_context(graph, node, literal_sent))

    delay = case.delay_model()
    rng = random.Random(case.seed)
    queue = []
    now = 0.0
    sequence = 0

    def settle(node, step):
        nonlocal sequence
        sends = list(fast_sent)
        if node in literal:
            assert Counter(fast_sent) == Counter(literal_sent), (step, node)
            for name in honest:
                fast, slow = network[name], literal[name]
                assert (fast.current_round, fast.decided, fast.output) == (
                    slow.current_round, slow.decided, slow.output,
                ), (step, name)
                assert fast.value_history == slow.value_history, (step, name)
            # Each fast send travels with an equal literal send.
            twins = {}
            for sender, receiver, payload in literal_sent:
                twins.setdefault((sender, receiver, payload), []).append(payload)
            sends = [
                (sender, receiver, payload, twins[(sender, receiver, payload)].pop())
                for sender, receiver, payload in sends
            ]
        else:
            sends = [(sender, receiver, payload, payload) for sender, receiver, payload in sends]
        del fast_sent[:], literal_sent[:]
        for sender, receiver, payload, twin in sends:
            sequence += 1
            latency = delay.delay(sender, receiver, payload, now, rng)
            heapq.heappush(queue, (now + latency, sequence, receiver, sender, payload, twin))

    for node in sorted(network, key=repr):
        network[node].on_start()
        if node in literal:
            literal[node].on_start()
        settle(node, "start")
    deliveries = 0
    while queue and deliveries < MAX_DELIVERIES:
        if all(network[node].decided for node in honest):
            break
        now, _, receiver, sender, payload, twin = heapq.heappop(queue)
        network[receiver].on_message(sender, payload)
        if receiver in literal:
            literal[receiver].on_message(sender, twin)
        deliveries += 1
        settle(receiver, deliveries)
    return deliveries, now


BEHAVIORS = (
    "honest", "crash", "crash-after:7", "fixed-high", "equivocate", "offset",
    "tamper-complete", "random", "replay",
)


@st.composite
def graphs(draw):
    """figure-1a, ``clique(4)``, ``clique(5)`` and zoo graphs at ``n ≤ 7``,
    many of them violating 3-reach."""
    family = draw(
        st.sampled_from(
            ("figure-1a", "clique", "barabasi-albert", "watts-strogatz", "random-digraph")
        )
    )
    if family == "figure-1a":
        return TopologySpec.make("figure-1a")
    if family == "clique":
        return TopologySpec.make("clique", n=draw(st.sampled_from((4, 5))))
    seed = draw(st.integers(0, 2**16))
    n = draw(st.integers(4, 7))
    if family == "barabasi-albert":
        return TopologySpec.make(
            "barabasi-albert", n=n, m=draw(st.integers(1, 3)), seed=seed, ensure_connected=True
        )
    if family == "watts-strogatz":
        return TopologySpec.make(
            "watts-strogatz", n=n, k=draw(st.sampled_from((2, 4) if n > 4 else (2,))),
            beta=draw(st.sampled_from((0.0, 0.3, 0.7))), seed=seed, ensure_connected=True,
        )
    return TopologySpec.make(
        "random-digraph", n=n, p=draw(st.sampled_from((0.3, 0.5, 0.7, 0.9))), seed=seed
    )


@st.composite
def cases(draw):
    topology = draw(graphs())
    graph = topology.build()
    nodes = sorted(graph.nodes, key=repr)
    delay = draw(st.sampled_from(("keyed", "keyed", "jittered", "targeted")))
    slow_edges = ()
    if delay == "targeted":
        edges = sorted(graph.edges, key=repr)
        slow_edges = tuple(draw(st.lists(st.sampled_from(edges), min_size=1, max_size=4)))
    # Redundant flooding grows fast with density: keep it to clique(4).
    redundant = topology == TopologySpec.make("clique", n=4)
    return Case(
        topology=topology,
        f=1,
        path_policy=draw(st.sampled_from(("redundant", "simple"))) if redundant else "simple",
        epsilon=draw(st.sampled_from((0.2, 0.3))),
        faulty=tuple(draw(st.lists(st.sampled_from(nodes), max_size=1))),
        behavior=draw(st.sampled_from(BEHAVIORS)),
        delay=delay,
        seed=draw(st.integers(0, 2**16)),
        slow_edges=slow_edges,
    )


#: The two phase_density quick cells in which a later round's COMPLETE wakes
#: a current-round thread whose round can then move on.  Both graphs
#: violate 3-reach.
CELL_24 = Case.sweep_cell("phase_density", 24)
CELL_33 = Case.sweep_cell("phase_density", 33)

BASELINE = Path(__file__).resolve().parents[1] / "benchmarks/baselines/phase_density.quick.json"


class TestLockstepWithLiteralBW:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @example(case=CELL_24)
    @example(case=CELL_33)
    @given(case=cases())
    def test_bw_matches_the_literal_algorithm_after_every_delivery(self, case):
        run_lockstep(case)

    def test_the_sweep_cell_examples_replay_the_committed_cells(self):
        # The examples above are the cells' own runs: the committed baseline
        # counts the same deliveries and ends at the same time.
        cells = json.loads(BASELINE.read_text(encoding="utf-8"))["cells"]
        for index, case in ((24, CELL_24), (33, CELL_33)):
            assert not check_three_reach(case.topology.build(), case.f).holds
            assert run_lockstep(case) == (
                cells[index]["messages"], cells[index]["simulated_time"]
            )

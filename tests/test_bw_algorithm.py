"""Integration tests for the Byzantine-Witness algorithm (Algorithm 1).

These tests run the full event-driven protocol on small graphs satisfying
3-reach and check the three properties of Definition 1 under a variety of
Byzantine behaviours, delay models and fault placements, plus the per-round
geometric contraction of Lemma 15.
"""

from __future__ import annotations

import pytest

from repro.adversary.adversary import FaultPlan, no_faults
from repro.adversary.behaviors import (
    CrashBehavior,
    EquivocateBehavior,
    FixedValueBehavior,
    OffsetValueBehavior,
    RandomValueBehavior,
)
from repro.algorithms.base import ConsensusConfig
from repro.algorithms.bw import BWProcess, create_bw_processes
from repro.algorithms.completeness import completeness
from repro.algorithms.messages import CompleteMessage, ValueMessage, sort_value_pairs
from repro.algorithms.topology import TopologyKnowledge
from repro.analysis.convergence import all_within_bound
from repro.exceptions import InfeasibleTopologyError, ProtocolError
from repro.graphs.generators import clique_with_feeders, complete_digraph, directed_cycle, figure_1a
from repro.network.delays import ConstantDelay, ExponentialDelay, UniformDelay
from repro.network.node import Context
from repro.network.simulator import Simulator
from repro.runner.metrics import per_round_ranges


def run_bw(graph, inputs, f, epsilon, faulty=(), behavior=None, seed=1,
           policy="redundant", delay=None, topology=None):
    """Minimal driver used by the tests (the runner package has a richer one)."""
    config = ConsensusConfig(
        f=f, epsilon=epsilon,
        input_low=min(inputs.values()), input_high=max(inputs.values()),
        path_policy=policy,
    )
    shared = topology or TopologyKnowledge(graph, f, policy)
    processes = create_bw_processes(graph, inputs, config, topology=shared)
    plan = FaultPlan(frozenset(faulty), lambda node: behavior()) if faulty else no_faults()
    wrapped = plan.apply(processes)
    simulator = Simulator(graph, delay or UniformDelay(0.5, 2.0), seed=seed)
    simulator.add_processes(wrapped.values())
    simulator.run(max_events=3_000_000)
    honest = {node: processes[node] for node in graph.nodes if node not in set(faulty)}
    return honest, config


def assert_definition1(honest, config, inputs, faulty=()):
    """Assert Termination + Convergence + Validity for the honest processes."""
    outputs = {node: process.output for node, process in honest.items()}
    assert all(process.decided for process in honest.values()), "termination violated"
    values = list(outputs.values())
    assert max(values) - min(values) < config.epsilon, "convergence violated"
    honest_inputs = [inputs[node] for node in honest]
    low, high = min(honest_inputs), max(honest_inputs)
    assert all(low - 1e-9 <= value <= high + 1e-9 for value in values), "validity violated"


class TestFaultFree:
    def test_clique_no_faults(self, clique4_topology):
        graph = complete_digraph(4)
        inputs = {0: 0.0, 1: 1.0, 2: 0.25, 3: 0.75}
        honest, config = run_bw(graph, inputs, f=1, epsilon=0.2, topology=clique4_topology)
        assert_definition1(honest, config, inputs)

    def test_zero_rounds_when_inputs_already_close(self):
        graph = complete_digraph(4)
        inputs = {0: 0.5, 1: 0.5, 2: 0.5, 3: 0.5}
        honest, config = run_bw(graph, inputs, f=1, epsilon=0.3)
        assert config.rounds_needed() == 0
        assert all(process.output == 0.5 for process in honest.values())

    def test_geometric_contraction(self, clique4_topology):
        graph = complete_digraph(4)
        inputs = {0: 0.0, 1: 1.0, 2: 0.5, 3: 0.9}
        honest, config = run_bw(graph, inputs, f=1, epsilon=0.05, topology=clique4_topology)
        ranges = per_round_ranges({node: process.value_history for node, process in honest.items()})
        assert len(ranges) >= 4
        assert all_within_bound(ranges, initial_range=1.0)

    def test_value_history_length_matches_rounds(self, clique4_topology):
        graph = complete_digraph(4)
        inputs = {0: 0.0, 1: 1.0, 2: 0.4, 3: 0.6}
        honest, config = run_bw(graph, inputs, f=1, epsilon=0.2, topology=clique4_topology)
        for process in honest.values():
            assert process.rounds_completed == config.rounds_needed()
            assert len(process.value_history) == config.rounds_needed() + 1
            assert all(state.advanced for state in process._rounds.values() if state.started)


class TestByzantineBehaviours:
    INPUTS = {0: 0.0, 1: 1.0, 2: 0.3, 3: 0.7}

    @pytest.mark.parametrize(
        "behavior",
        [
            CrashBehavior,
            lambda: FixedValueBehavior(1e6),
            lambda: FixedValueBehavior(-1e6),
            lambda: RandomValueBehavior(-100, 100),
            lambda: EquivocateBehavior(default_offset=10.0),
            lambda: OffsetValueBehavior(5.0),
        ],
        ids=["crash", "fixed-high", "fixed-low", "random", "equivocate", "offset"],
    )
    def test_clique_with_one_byzantine(self, behavior, clique4_topology):
        graph = complete_digraph(4)
        honest, config = run_bw(
            graph, self.INPUTS, f=1, epsilon=0.25, faulty={3}, behavior=behavior,
            topology=clique4_topology,
        )
        assert_definition1(honest, config, self.INPUTS, faulty={3})

    def test_every_fault_placement_on_clique(self, clique4_topology):
        graph = complete_digraph(4)
        for faulty_node in graph.nodes:
            honest, config = run_bw(
                graph, self.INPUTS, f=1, epsilon=0.25,
                faulty={faulty_node}, behavior=lambda: FixedValueBehavior(50.0),
                topology=clique4_topology, seed=faulty_node,
            )
            assert_definition1(honest, config, self.INPUTS, faulty={faulty_node})

    def test_different_delay_models(self, clique4_topology):
        graph = complete_digraph(4)
        for delay in (ConstantDelay(1.0), UniformDelay(0.1, 5.0), ExponentialDelay(1.0)):
            honest, config = run_bw(
                graph, self.INPUTS, f=1, epsilon=0.25, faulty={2},
                behavior=lambda: EquivocateBehavior({0: -10.0, 1: 10.0}),
                delay=delay, topology=clique4_topology,
            )
            assert_definition1(honest, config, self.INPUTS, faulty={2})


class TestDirectedGraphs:
    def test_figure_1a_with_byzantine_node(self):
        graph = figure_1a()
        inputs = {"v1": 0.0, "v2": 1.0, "v3": 0.5, "v4": 0.2, "v5": 0.8}
        honest, config = run_bw(
            graph, inputs, f=1, epsilon=0.3, faulty={"v4"},
            behavior=lambda: FixedValueBehavior(-99.0),
        )
        assert_definition1(honest, config, inputs, faulty={"v4"})

    @pytest.mark.parametrize(
        "graph, policy, faulty",
        [
            (clique_with_feeders(4, 1), "simple", "c0"),
            (clique_with_feeders(3, 2), "redundant", "s1"),
            (clique_with_feeders(4, 2), "simple", "s1"),
            (complete_digraph(5), "simple", 4),
        ],
        ids=lambda value: getattr(value, "name", str(value)),
    )
    def test_genuinely_directed_graph(self, graph, policy, faulty):
        inputs = {
            node: index / (graph.num_nodes - 1)
            for index, node in enumerate(sorted(graph.nodes))
        }
        honest, config = run_bw(
            graph, inputs, f=1, epsilon=0.3, faulty={faulty},
            behavior=lambda: EquivocateBehavior(default_offset=3.0), policy=policy,
        )
        assert_definition1(honest, config, inputs, faulty={faulty})

    def test_simple_policy_matches_redundant_on_clique(self, clique4_topology):
        graph = complete_digraph(4)
        inputs = {0: 0.0, 1: 1.0, 2: 0.4, 3: 0.6}
        honest_simple, config = run_bw(graph, inputs, f=1, epsilon=0.2, policy="simple")
        honest_redundant, _ = run_bw(graph, inputs, f=1, epsilon=0.2, topology=clique4_topology)
        assert_definition1(honest_simple, config, inputs)
        assert_definition1(honest_redundant, config, inputs)


class TestConfigurationAndErrors:
    def test_strict_topology_check_rejects_weak_graph(self):
        graph = directed_cycle(4)
        config = ConsensusConfig(f=1, epsilon=0.1, strict_topology_check=True)
        with pytest.raises(InfeasibleTopologyError):
            BWProcess(0, graph, 0.5, config)

    def test_strict_topology_check_accepts_clique(self):
        graph = complete_digraph(4)
        config = ConsensusConfig(f=1, epsilon=0.1, strict_topology_check=True)
        assert BWProcess(0, graph, 0.5, config).total_rounds == config.rounds_needed()

    def test_knowledge_of_another_path_policy_rejected(self):
        graph = complete_digraph(4)
        config = ConsensusConfig(f=1, epsilon=0.1, path_policy="simple")
        with pytest.raises(ProtocolError):
            BWProcess(0, graph, 0.5, config, topology=TopologyKnowledge(graph, 1, "redundant"))

    def test_input_outside_declared_range_rejected(self):
        graph = complete_digraph(4)
        config = ConsensusConfig(f=1, epsilon=0.1, input_low=0.0, input_high=1.0)
        with pytest.raises(ProtocolError):
            BWProcess(0, graph, 5.0, config)

    def test_create_processes_requires_all_inputs(self):
        graph = complete_digraph(3)
        config = ConsensusConfig(f=0, epsilon=0.1)
        with pytest.raises(ProtocolError):
            create_bw_processes(graph, {0: 0.1}, config)

    def test_rounds_needed_formula(self):
        config = ConsensusConfig(f=1, epsilon=0.1, input_low=0.0, input_high=1.0)
        assert config.rounds_needed() == 4  # 1/2^4 = 0.0625 < 0.1
        assert ConsensusConfig(f=1, epsilon=2.0, input_low=0.0, input_high=1.0).rounds_needed() == 0
        assert ConsensusConfig(f=1, epsilon=0.1, max_rounds=2).rounds_needed() == 2

    def test_repr_mentions_progress(self):
        graph = complete_digraph(4)
        config = ConsensusConfig(f=1, epsilon=0.5)
        process = BWProcess(0, graph, 0.5, config)
        assert "BWProcess" in repr(process)


class TestDeliveryMachinery:
    """One BW node driven message by message: the relay rule, the
    FIFO-Receive-All parking index and the Completeness memo."""

    NODE = 3
    VALUES = {1: 0.2, 2: 0.8, 3: 0.5}
    #: The COMPLETE({0}) value map every witness below announces.
    WITNESSED = sort_value_pairs(VALUES.items())
    #: A COMPLETE({2}) value map vouching for node 0, which node 3 has not
    #: heard from yet: its Completeness check fails until it has.
    VOUCHES_FOR_0 = sort_value_pairs({0: 0.1, 1: 0.2, 3: 0.5}.items())

    def node(self):
        graph = complete_digraph(4)
        config = ConsensusConfig(f=1, epsilon=0.25, input_low=0.0, input_high=1.0)
        process = BWProcess(self.NODE, graph, self.VALUES[self.NODE], config)
        sent = []
        process.bind(
            Context(
                node_id=self.NODE,
                out_neighbors=graph.successors(self.NODE),
                in_neighbors=graph.predecessors(self.NODE),
                send=lambda sender, receiver, payload: sent.append((receiver, payload)),
                clock=lambda: 0.0,
                send_many=lambda sender, receivers, payload: sent.extend(
                    (receiver, payload) for receiver in receivers
                ),
                decided=lambda node: None,
            )
        )
        process.on_start()
        return process, sent

    @staticmethod
    def deliver_path(process, path, value):
        """Deliver ``value`` as received over ``path`` (which ends at the node)."""
        process.on_message(path[-2], ValueMessage(0, value, path[:-1]))

    @staticmethod
    def deliver_complete(process, origin, fault_set, values, counter, path):
        process.on_message(
            path[-1], CompleteMessage(0, origin, frozenset(fault_set), values, counter, path)
        )

    def announce_for_0(self, process):
        """Fill thread {0} — every policy path of G - {0} — so node 3 floods
        COMPLETE({0}) and the thread starts waiting on FIFO-Receive-All."""
        fault_set = frozenset({0})
        for path in sorted(process.topology.required_paths(self.NODE, fault_set)):
            if len(path) > 1:
                self.deliver_path(process, path, self.VALUES[path[0]])
        state = process._rounds[0]
        tracker = state.trackers[fault_set]
        # The node's own COMPLETE({0}) is stored under its trivial path.
        own = (self.NODE, fault_set, process._path_record((self.NODE,))[2])
        assert own in state.complete_messages and not tracker.fifo_received_all
        return state, tracker

    def test_byzantine_resend_on_a_received_path_is_stored_and_relayed_once(self):
        process, sent = self.node()
        process.on_message(1, ValueMessage(0, 0.2, (1,)))
        process.on_message(1, ValueMessage(0, 0.9, (1,)))  # same path, new value
        assert process._rounds[0].message_set.value_on_path((1, 3)) == 0.2
        relays = [
            payload for _, payload in sent
            if isinstance(payload, ValueMessage) and payload.path == (1, 3)
        ]
        assert {payload.value for payload in relays} == {0.2}
        # One copy per out-neighbour that keeps the path redundant: one flood.
        assert len(relays) == len(process._path_record((1, 3))[3])

    def test_out_of_order_fifo_counters_park_the_thread_until_the_gap_fills(self):
        process, _ = self.node()
        state, tracker = self.announce_for_0(process)
        for path in ((2,), (2, 1)):  # origin 2's entries, in FIFO order
            self.deliver_complete(process, 2, {0}, self.WITNESSED, 1, path)
        # Origin 1's copy with counter 2 arrives over (1, 2) before counter 1.
        self.deliver_complete(process, 1, {0}, self.WITNESSED, 2, (1, 2))
        # Parking keys hold the shared path id, not the path tuple.
        ids = process.topology.path_table().ids
        gap = (1, ids[(1, 2, 3)])
        assert tracker in state.parked[gap]
        position = tracker.scan_pos
        # A receipt on another path of the same origin cannot fill the gap.
        self.deliver_complete(process, 1, {0}, self.WITNESSED, 2, (1,))
        assert tracker in state.parked[gap] and tracker.scan_pos == position
        # Counter 1 on the gap's path wakes the thread; it moves on and parks
        # on (1, 3), whose counter 1 is still missing.
        self.deliver_complete(process, 1, {2}, self.VOUCHES_FOR_0, 1, (1, 2))
        assert gap not in state.parked
        assert tracker.scan_pos > position and tracker in state.parked[(1, ids[(1, 3)])]
        assert not tracker.fifo_received_all
        self.deliver_complete(process, 1, {2}, self.VOUCHES_FOR_0, 1, (1,))
        assert tracker.fifo_received_all
        assert not any(tracker in waiting for waiting in state.parked.values())

    def test_failed_completeness_reruns_only_after_a_value_delivery(self, monkeypatch):
        from repro.algorithms import bw

        calls = []

        def counting(message_set, witness_values, fault_set, topology, node):
            verdict = completeness(message_set, witness_values, fault_set, topology, node)
            calls.append((frozenset(fault_set), verdict))
            return verdict

        monkeypatch.setattr(bw, "completeness", counting)
        process, _ = self.node()
        state, tracker = self.announce_for_0(process)
        for path in ((2,), (2, 1)):
            self.deliver_complete(process, 2, {0}, self.WITNESSED, 1, path)
        for path in ((1,), (1, 2)):
            self.deliver_complete(process, 1, {2}, self.VOUCHES_FOR_0, 1, path)
            self.deliver_complete(process, 1, {0}, self.WITNESSED, 2, path)
        assert tracker.fifo_received_all
        # Verify failed on node 1's COMPLETE({2}): nothing from node 0 yet.
        assert calls and calls[-1] == (frozenset({2}), False)
        assert process.current_round == 0
        before = len(calls)
        # COMPLETE-only deliveries leave M unchanged: no check re-runs.
        self.deliver_complete(process, 2, {0}, self.WITNESSED, 1, (2,))
        self.deliver_complete(process, 1, {2}, self.VOUCHES_FOR_0, 1, (1,))
        self.deliver_complete(process, 1, {2}, self.VOUCHES_FOR_0, 1, (1, 2))
        assert len(calls) == before
        # Node 0's value completes M: the check re-runs, passes, and the
        # round advances.
        self.deliver_path(process, (0, 3), 0.1)
        assert (frozenset({2}), True) in calls[before:]
        assert process.current_round == 1
        assert (frozenset({2}), self.VOUCHES_FOR_0) in state.completeness_passed

    def test_identical_announcements_from_two_origins_run_completeness_once(self, monkeypatch):
        from repro.algorithms import bw

        calls = []

        def counting(message_set, witness_values, fault_set, topology, node):
            verdict = completeness(message_set, witness_values, fault_set, topology, node)
            calls.append((frozenset(fault_set), sort_value_pairs(witness_values.items()), verdict))
            return verdict

        monkeypatch.setattr(bw, "completeness", counting)
        process, _ = self.node()
        state, tracker = self.announce_for_0(process)
        # Origins 1 and 2 both announce COMPLETE({0}) with node 3's own
        # value map, over every simple path inside reach_3({0}).
        for origin, other in ((2, 1), (1, 2)):
            for path in ((origin,), (origin, other)):
                self.deliver_complete(process, origin, {0}, self.WITNESSED, 1, path)
        assert tracker.fifo_received_all
        origins = {origin for origin, fault_set, _ in state.complete_messages if fault_set == {0}}
        assert origins == {1, 2, 3}
        # Three witnesses, one distinct announcement: one Completeness check.
        assert calls == [(frozenset({0}), self.WITNESSED, True)]
        assert process.current_round == 1
        assert state.completeness_passed == {(frozenset({0}), self.WITNESSED)}


def test_per_cell_work_does_not_depend_on_the_string_hash_seed():
    """A figure-1a churn cell (string node ids) scans the same FIFO wait
    lists and runs the same Completeness checks in every interpreter."""
    import json
    import os
    import subprocess
    import sys

    import repro

    script = """
import json
from repro.algorithms import bw
from repro.runner.scenarios import get_scenario, run_cell

counts = {"fifo": 0, "completeness": 0}
scan = bw.BWProcess._fifo_receive_all_satisfied
check = bw.completeness

def counting_scan(*args):
    counts["fifo"] += 1
    return scan(*args)

def counting_check(*args):
    counts["completeness"] += 1
    return check(*args)

bw.BWProcess._fifo_receive_all_satisfied = counting_scan
bw.completeness = counting_check
spec = get_scenario("churn").grid(quick=False)
cell = next(cell for cell in spec.expand() if cell.faults.startswith("churn"))
result = run_cell(spec, cell)
print(json.dumps({"counts": counts, "messages": result.messages}))
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        completed = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        outputs.append(json.loads(completed.stdout.strip().splitlines()[-1]))
    assert outputs[0]["counts"]["fifo"] > 0 and outputs[0]["counts"]["completeness"] > 0
    assert outputs[0] == outputs[1]

"""Additional robustness tests for the Byzantine-Witness algorithm.

These go beyond the canonical behaviours of ``test_bw_algorithm.py``:
mid-execution crashes, asymmetric silence, message duplication, multiple
epsilon regimes, FIFO versus non-FIFO links, determinism of the whole
stack for a fixed seed, malformed Byzantine payloads, and forged paths past
the path-memo bound.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from _oracles import fifo_link_delays
from repro.adversary.adversary import FaultPlan
from repro.adversary.behaviors import (
    ByzantineBehavior,
    CrashAfterBehavior,
    FixedValueBehavior,
    HonestBehavior,
    ReplayBehavior,
    SelectiveSilenceBehavior,
)
from repro.algorithms import bw as bw_module
from repro.algorithms import topology as topology_module
from repro.algorithms.base import ConsensusConfig
from repro.algorithms.bw import create_bw_processes
from repro.algorithms.messages import ValueMessage
from repro.algorithms.topology import TopologyKnowledge
from repro.graphs.generators import complete_digraph
from repro.network.delays import UniformDelay
from repro.network.simulator import Simulator
from repro.runner.experiment import run_bw_experiment
from repro.runner.harness import TopologySpec
from repro.runner.worker_cache import cached_topology_knowledge, clear_worker_caches


GRAPH = complete_digraph(4)
TOPOLOGY = TopologyKnowledge(GRAPH, 1, "redundant")
INPUTS = {0: 0.0, 1: 1.0, 2: 0.35, 3: 0.65}
CONFIG = ConsensusConfig(f=1, epsilon=0.25, input_low=0.0, input_high=1.0)


def run_with(behavior_factory, faulty=3, seed=1, config=CONFIG, delay=None):
    plan = FaultPlan(frozenset({faulty}), behavior_factory)
    return run_bw_experiment(
        GRAPH, INPUTS, config, plan, seed=seed, topology=TOPOLOGY,
        delay_model=delay,
    )


class TestUnusualBehaviours:
    def test_crash_after_some_sends(self):
        outcome = run_with(lambda node: CrashAfterBehavior(honest_sends=5))
        assert outcome.correct

    def test_tampered_complete_announcements(self):
        # The adversary attacks the witness machinery itself: it forges the
        # value maps inside its COMPLETE announcements.  The Completeness
        # condition prevents honest nodes from acting on announcements whose
        # values cannot be confirmed through uncoverable path sets, so
        # Definition 1 still holds.
        from repro.adversary.behaviors import CompleteTamperBehavior

        outcome = run_with(lambda node: CompleteTamperBehavior(-500.0))
        assert outcome.correct

    def test_selective_silence_towards_one_victim(self):
        outcome = run_with(lambda node: SelectiveSilenceBehavior(silent_towards=[0]))
        assert outcome.correct

    def test_replaying_adversary_does_not_break_deduplication(self):
        outcome = run_with(lambda node: ReplayBehavior(copies=3))
        assert outcome.correct

    def test_faulty_node_behaving_honestly(self):
        outcome = run_with(lambda node: HonestBehavior())
        assert outcome.correct
        # An honest "fault" keeps every node inside the global input range.
        assert all(0.0 <= value <= 1.0 for value in outcome.outputs.values())


class TestEpsilonRegimes:
    @pytest.mark.parametrize("epsilon,expected_rounds", [(0.6, 1), (0.3, 2), (0.06, 5)])
    def test_round_count_scales_with_epsilon(self, epsilon, expected_rounds):
        config = ConsensusConfig(f=1, epsilon=epsilon, input_low=0.0, input_high=1.0)
        outcome = run_with(lambda node: CrashAfterBehavior(3), config=config)
        assert outcome.rounds == expected_rounds == config.rounds_needed()
        assert outcome.correct

    def test_tiny_epsilon_still_converges(self):
        config = ConsensusConfig(f=1, epsilon=0.01, input_low=0.0, input_high=1.0)
        outcome = run_with(lambda node: SelectiveSilenceBehavior([1]), config=config)
        assert outcome.correct
        assert outcome.output_range < 0.01


class TestDeterminismAndNetworkVariants:
    def test_fixed_seed_reproduces_outputs_exactly(self):
        first = run_with(lambda node: CrashAfterBehavior(2), seed=123)
        second = run_with(lambda node: CrashAfterBehavior(2), seed=123)
        assert first.outputs == second.outputs
        assert first.messages_delivered == second.messages_delivered

    def test_different_seeds_still_correct(self):
        for seed in (5, 6, 7):
            assert run_with(lambda node: CrashAfterBehavior(2), seed=seed).correct

    def test_fifo_links_do_not_change_correctness(self):
        from repro.adversary.behaviors import EquivocateBehavior

        processes = create_bw_processes(GRAPH, INPUTS, CONFIG, topology=TOPOLOGY)
        plan = FaultPlan(frozenset({3}), lambda node: EquivocateBehavior({0: -3.0, 1: 3.0}))
        wrapped = plan.apply(processes)
        simulator = Simulator(GRAPH, fifo_link_delays(GRAPH, seed=2))
        simulator.add_processes(wrapped.values())
        simulator.run(max_events=2_000_000)
        outputs = [processes[node].output for node in (0, 1, 2)]
        assert all(value is not None for value in outputs)
        assert max(outputs) - min(outputs) < CONFIG.epsilon

    def test_extreme_delay_spread(self):
        outcome = run_with(
            lambda node: CrashAfterBehavior(4),
            delay=UniformDelay(0.01, 50.0),
            seed=9,
        )
        assert outcome.correct


class MalformBehavior(ByzantineBehavior):
    """Rewrite one field of every payload that has it to a malformed value."""

    def __init__(self, field: str, bad) -> None:
        self.field = field
        self.bad = bad

    def on_send(self, sender, receiver, payload, rng):
        if self.field not in {field.name for field in dataclasses.fields(payload)}:
            return [payload]
        bad = self.bad(payload) if callable(self.bad) else self.bad
        return [dataclasses.replace(payload, **{self.field: bad})]


CLIQUE5 = complete_digraph(5)
CLIQUE5_INPUTS = {node: node / 4 for node in range(5)}


class TestMalformedPayloads:
    """A Byzantine payload that is malformed or not finite is ignored at
    receipt, like a silent link: the cell neither raises nor lets it reach
    an honest node's state."""

    def test_nan_value_does_not_reach_honest_outputs(self):
        plan = FaultPlan(frozenset({2}), lambda node: FixedValueBehavior(math.nan))
        outcome = run_bw_experiment(CLIQUE5, CLIQUE5_INPUTS, CONFIG, plan, seed=3)
        assert all(math.isfinite(value) for value in outcome.outputs.values())
        assert outcome.correct

    @pytest.mark.parametrize(
        "field, bad",
        [
            pytest.param("value", math.nan, id="nan-value"),
            pytest.param("value", math.inf, id="inf-value"),
            pytest.param("value", -math.inf, id="minus-inf-value"),
            pytest.param("value", "0.5", id="string-value"),
            pytest.param("value", None, id="none-value"),
            pytest.param("round", [0], id="unhashable-round"),
            pytest.param("path", 5, id="path-not-a-sequence"),
            pytest.param("path", lambda payload: ([0],) + tuple(payload.path), id="unhashable-hop"),
            pytest.param("origin", {}, id="unhashable-origin"),
            pytest.param("fault_set", [[1]], id="unhashable-fault-set-member"),
            pytest.param("fault_set", 7, id="fault-set-not-iterable"),
            pytest.param("fifo_counter", "1", id="string-fifo-counter"),
            pytest.param("values", lambda payload: list(payload.values), id="unhashable-values"),
            pytest.param("values", ((0, 0.5, 1),), id="values-not-pairs"),
        ],
    )
    def test_malformed_field_is_ignored(self, field, bad):
        plan = FaultPlan(frozenset({2}), lambda node: MalformBehavior(field, bad))
        for seed in (1, 3):
            outcome = run_bw_experiment(CLIQUE5, CLIQUE5_INPUTS, CONFIG, plan, seed=seed)
            assert outcome.correct, outcome.summary()


class TestForgedPathsPastMemoLimit:
    """A sender forging more distinct paths than ``PATH_MEMO_LIMIT`` cannot
    grow the worker-cached knowledge past it, and every forged path is still
    stored under an id of its own."""

    def test_forged_paths_are_bounded_and_kept(self, monkeypatch):
        spec = TopologySpec.make("clique", n=4)
        honest = len(TopologyKnowledge(GRAPH, 1, "redundant").path_table())
        limit = honest + 5
        monkeypatch.setattr(topology_module, "PATH_MEMO_LIMIT", limit)
        monkeypatch.setattr(bw_module, "PATH_MEMO_LIMIT", limit)
        clear_worker_caches()
        try:
            knowledge = cached_topology_knowledge(spec, 1, "redundant")
            processes = create_bw_processes(knowledge.graph, INPUTS, CONFIG, topology=knowledge)
            simulator = Simulator(knowledge.graph, UniformDelay(0.5, 2.0), seed=1)
            simulator.add_processes(processes.values())
            simulator.start()
            receiver, sender = processes[0], 1
            forged = {(100 + k, sender): k / 64 for k in range(40)}
            for path, value in forged.items():
                receiver.on_message(sender, ValueMessage(0, value, path))

            table = knowledge.path_table()
            assert len(table) == limit
            assert len(knowledge.path_info) <= limit
            message_set = receiver._rounds[0].message_set
            for path, value in forged.items():
                assert message_set.value_on_path(path + (0,)) == value
            assert sorted(message_set.entries()) == sorted(
                [(receiver.state_value, (0,))]
                + [(value, path + (0,)) for path, value in forged.items()]
            )

            # Read-only lookups never intern.
            size, stored = len(table), len(message_set)
            unknown = (999, sender, 0)
            assert unknown not in message_set
            assert message_set.value_on_path(unknown) is None
            assert message_set.mask_on_path(unknown) is None
            assert (len(table), len(message_set)) == (size, stored)
            assert unknown not in table.ids
            assert unknown not in message_set.exclude([]).paths()
        finally:
            clear_worker_caches()

"""Unit tests for Byzantine behaviours, process wrapping and fault placement."""

from __future__ import annotations

import random

import pytest

from repro.adversary.adversary import ByzantineProcess, FaultPlan, no_faults
from repro.adversary.behaviors import (
    STANDARD_BEHAVIOR_FACTORIES,
    CrashAfterBehavior,
    CrashBehavior,
    EquivocateBehavior,
    FixedValueBehavior,
    HonestBehavior,
    OffsetValueBehavior,
    RandomValueBehavior,
    ReplayBehavior,
    SelectiveSilenceBehavior,
)
from repro.adversary.placement import (
    PLACEMENT_STRATEGIES,
    place_bridge_nodes,
    place_max_in_degree,
    place_max_out_degree,
    place_random,
)
from repro.algorithms.messages import ValueMessage
from repro.exceptions import AdversaryError
from repro.graphs.generators import complete_digraph, star_out
from repro.network.delays import ConstantDelay
from repro.network.node import Process, RecordingProcess
from repro.network.simulator import Simulator

RNG = random.Random(0)
SAMPLE = ValueMessage(round=0, value=10.0, path=("a",))


class TestBehaviors:
    def test_honest_passthrough(self):
        assert HonestBehavior().on_send("a", "b", SAMPLE, RNG) == [SAMPLE]

    def test_crash_sends_nothing(self):
        behavior = CrashBehavior()
        assert behavior.on_send("a", "b", SAMPLE, RNG) == []
        assert not behavior.processes_messages

    def test_crash_after_budget(self):
        behavior = CrashAfterBehavior(2)
        assert behavior.on_send("a", "b", SAMPLE, RNG) == [SAMPLE]
        assert behavior.on_send("a", "b", SAMPLE, RNG) == [SAMPLE]
        assert behavior.on_send("a", "b", SAMPLE, RNG) == []

    def test_fixed_value_rewrites_value(self):
        [mutated] = FixedValueBehavior(99.0).on_send("a", "b", SAMPLE, RNG)
        assert mutated.value == 99.0
        assert mutated.path == SAMPLE.path

    def test_fixed_value_leaves_non_value_payloads(self):
        [result] = FixedValueBehavior(99.0).on_send("a", "b", "opaque", RNG)
        assert result == "opaque"

    def test_random_value_within_range(self):
        behavior = RandomValueBehavior(-5, 5)
        for _ in range(20):
            [mutated] = behavior.on_send("a", "b", SAMPLE, RNG)
            assert -5 <= mutated.value <= 5

    def test_random_value_validation(self):
        with pytest.raises(ValueError):
            RandomValueBehavior(5, -5)

    def test_equivocate_per_receiver(self):
        behavior = EquivocateBehavior({"b": 1.0, "c": 2.0})
        assert behavior.on_send("a", "b", SAMPLE, RNG)[0].value == 1.0
        assert behavior.on_send("a", "c", SAMPLE, RNG)[0].value == 2.0
        assert behavior.on_send("a", "d", SAMPLE, RNG)[0].value == SAMPLE.value

    def test_equivocate_default_offset(self):
        behavior = EquivocateBehavior(default_offset=5.0)
        assert behavior.on_send("a", "z", SAMPLE, RNG)[0].value == 15.0

    def test_offset(self):
        assert OffsetValueBehavior(-3.0).on_send("a", "b", SAMPLE, RNG)[0].value == 7.0

    def test_selective_silence(self):
        behavior = SelectiveSilenceBehavior(["b"])
        assert behavior.on_send("a", "b", SAMPLE, RNG) == []
        assert behavior.on_send("a", "c", SAMPLE, RNG) == [SAMPLE]

    def test_replay_duplicates(self):
        assert len(ReplayBehavior(3).on_send("a", "b", SAMPLE, RNG)) == 3
        with pytest.raises(ValueError):
            ReplayBehavior(0)

    def test_complete_tamper_rewrites_value_maps(self):
        from repro.adversary.behaviors import CompleteTamperBehavior
        from repro.algorithms.messages import CompleteMessage

        behavior = CompleteTamperBehavior(-7.0)
        announcement = CompleteMessage(
            round=0, origin="c", fault_set=frozenset(),
            values=(("a", 1.0), ("b", 2.0)), fifo_counter=1, path=("c",),
        )
        [forged] = behavior.on_send("c", "z", announcement, RNG)
        assert dict(forged.values) == {"a": -7.0, "b": -7.0}
        [forged_value] = behavior.on_send("c", "z", SAMPLE, RNG)
        assert forged_value.value == -7.0

    def test_standard_factory_table(self):
        for name, factory in STANDARD_BEHAVIOR_FACTORIES.items():
            behavior = factory()
            assert behavior.describe()
            assert isinstance(behavior.on_send("a", "b", SAMPLE, RNG), list)


class _Chatter(Process):
    """Sends its value to every neighbour on start (for wrapper tests)."""

    def __init__(self, node_id, value):
        super().__init__(node_id)
        self.value = value
        self.heard = []

    def on_start(self):
        self.broadcast(ValueMessage(round=0, value=self.value, path=(self.node_id,)))

    def on_message(self, sender, payload):
        self.heard.append((sender, payload.value))


class TestByzantineProcess:
    def _run(self, behavior):
        graph = complete_digraph(3)
        simulator = Simulator(graph, ConstantDelay(1.0))
        inner = _Chatter(0, 10.0)
        wrapped = ByzantineProcess(inner, behavior, seed=1)
        honest = [_Chatter(1, 1.0), _Chatter(2, 2.0)]
        simulator.add_processes([wrapped] + honest)
        simulator.run()
        return inner, honest

    def test_crash_wrapper_sends_nothing(self):
        _, honest = self._run(CrashBehavior())
        assert all(all(sender != 0 for sender, _ in process.heard) for process in honest)

    def test_fixed_value_wrapper_lies(self):
        _, honest = self._run(FixedValueBehavior(77.0))
        for process in honest:
            lies = [value for sender, value in process.heard if sender == 0]
            assert lies == [77.0]

    def test_honest_wrapper_equivalent_to_unwrapped(self):
        _, honest = self._run(HonestBehavior())
        for process in honest:
            assert (0, 10.0) in process.heard

    def test_inner_still_receives_when_processing(self):
        inner, _ = self._run(FixedValueBehavior(77.0))
        assert len(inner.heard) == 2


class TestFaultPlan:
    def test_plan_validation(self):
        graph = complete_digraph(4)
        plan = FaultPlan(frozenset({0, 1}), lambda node: CrashBehavior())
        plan.validate(graph.nodes, f=2)
        with pytest.raises(AdversaryError):
            plan.validate(graph.nodes, f=1)
        with pytest.raises(AdversaryError):
            FaultPlan(frozenset({99}), lambda node: CrashBehavior()).validate(graph.nodes, f=1)

    def test_apply_wraps_only_faulty(self):
        plan = FaultPlan(frozenset({1}), lambda node: CrashBehavior())
        processes = {i: RecordingProcess(i) for i in range(3)}
        wrapped = plan.apply(processes)
        assert isinstance(wrapped[1], ByzantineProcess)
        assert wrapped[0] is processes[0]

    def test_nonfaulty_helper(self):
        plan = FaultPlan(frozenset({1}), lambda node: CrashBehavior())
        assert plan.nonfaulty([0, 1, 2]) == frozenset({0, 2})
        assert plan.is_faulty(1) and not plan.is_faulty(0)

    def test_no_faults_plan(self):
        plan = no_faults()
        assert plan.num_faults == 0
        assert plan.describe() == "no faults"

    def test_describe_mentions_behavior(self):
        plan = FaultPlan(frozenset({2}), lambda node: FixedValueBehavior(4.0))
        assert "fixed-value" in plan.describe()


class TestPlacement:
    def test_place_none(self):
        graph = complete_digraph(4)
        assert PLACEMENT_STRATEGIES["none"](graph, 2) == frozenset()

    def test_place_random_seeded(self):
        graph = complete_digraph(6)
        assert place_random(graph, 2, seed=3) == place_random(graph, 2, seed=3)
        assert len(place_random(graph, 2, seed=3)) == 2

    def test_place_random_validation(self):
        graph = complete_digraph(3)
        with pytest.raises(AdversaryError):
            place_random(graph, 4)
        with pytest.raises(AdversaryError):
            place_random(graph, -1)

    def test_degree_based_placement(self):
        star = star_out(5)
        assert place_max_out_degree(star, 1) == frozenset({0})
        assert 0 not in place_max_in_degree(star, 2)

    def test_bridge_placement_picks_cut_node(self):
        star = star_out(5)
        assert place_bridge_nodes(star, 1) == frozenset({0})

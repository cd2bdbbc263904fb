"""Unit tests for the discrete-event asynchronous network simulator."""

from __future__ import annotations

import pytest

from _oracles import fifo_link_delays
from repro.exceptions import SchedulerError, SimulationError
from repro.graphs.digraph import DiGraph
from repro.graphs.generators import complete_digraph, directed_cycle
from repro.network.delays import ConstantDelay, UniformDelay
from repro.network.node import Process, RecordingProcess, SilentProcess
from repro.network.simulator import Simulator


class Broadcaster(Process):
    """Broadcasts a single payload at start."""

    def __init__(self, node_id, payload):
        super().__init__(node_id)
        self.payload = payload

    def on_start(self):
        self.broadcast(self.payload)


class Forwarder(Process):
    """Forwards every received payload once, appending its own id."""

    def on_message(self, sender, payload):
        if isinstance(payload, tuple) and len(payload) < 3:
            self.broadcast(payload + (self.node_id,))


class TimerUser(Process):
    """Decides a value when its timer fires."""

    def on_start(self):
        self.require_context().set_timer(5.0, tag="wake")

    def on_timer(self, tag):
        self.decide(tag)


class TestRegistration:
    def test_process_must_be_on_graph_node(self):
        simulator = Simulator(complete_digraph(2))
        with pytest.raises(SimulationError):
            simulator.add_process(RecordingProcess(99))

    def test_duplicate_process_rejected(self):
        simulator = Simulator(complete_digraph(2))
        simulator.add_process(RecordingProcess(0))
        with pytest.raises(SimulationError):
            simulator.add_process(RecordingProcess(0))

    def test_send_requires_edge(self):
        graph = DiGraph(edges=[(0, 1)])
        simulator = Simulator(graph)
        a = RecordingProcess(0)
        b = RecordingProcess(1)
        simulator.add_processes([a, b])
        simulator.start()
        with pytest.raises(SimulationError):
            b.send(0, "nope")  # the edge 1 → 0 does not exist
        a.send(1, "ok")
        assert simulator.pending_events() == 1

    def test_unbound_process_send_fails(self):
        process = RecordingProcess(0)
        with pytest.raises(SimulationError):
            process.send(1, "x")


class TestDelivery:
    def test_broadcast_reaches_every_out_neighbor(self):
        graph = complete_digraph(4)
        simulator = Simulator(graph, ConstantDelay(1.0))
        sender = Broadcaster(0, "hello")
        receivers = [RecordingProcess(i) for i in (1, 2, 3)]
        simulator.add_processes([sender] + receivers)
        stats = simulator.run()
        assert stats.delivered_messages == 3
        for receiver in receivers:
            assert receiver.received == [(0, "hello")]

    def test_directed_edge_one_way_only(self):
        graph = DiGraph(edges=[(0, 1)])
        simulator = Simulator(graph, ConstantDelay(1.0))
        sender = Broadcaster(0, "x")
        sink = RecordingProcess(1)
        simulator.add_processes([sender, sink])
        simulator.run()
        assert sink.received == [(0, "x")]

    def test_relay_chain_over_cycle(self):
        graph = directed_cycle(3)
        simulator = Simulator(graph, ConstantDelay(1.0))
        simulator.add_processes([Broadcaster(0, (0,)), Forwarder(1), Forwarder(2)])
        stats = simulator.run()
        assert stats.delivered_messages >= 3
        assert stats.final_time >= 3.0

    def test_timer_events(self):
        graph = complete_digraph(2)
        simulator = Simulator(graph)
        timer = TimerUser(0)
        simulator.add_processes([timer, SilentProcess(1)])
        stats = simulator.run()
        assert timer.decided and timer.output == "wake"
        assert stats.timer_events == 1


class TestDeterminismAndLimits:
    def _run_once(self, seed):
        graph = complete_digraph(4)
        simulator = Simulator(graph, UniformDelay(0.5, 2.0), seed=seed)
        processes = [Broadcaster(0, "m")] + [RecordingProcess(i) for i in (1, 2, 3)]
        simulator.add_processes(processes)
        simulator.run()
        return simulator.stats.final_time

    def test_same_seed_same_schedule(self):
        assert self._run_once(7) == self._run_once(7)

    def test_different_seed_different_schedule(self):
        assert self._run_once(7) != self._run_once(8)

    def test_max_events_limit(self):
        graph = directed_cycle(3)

        class Chatterbox(Process):
            def on_start(self):
                self.broadcast(("spam",))

            def on_message(self, sender, payload):
                self.broadcast(("spam",))

        simulator = Simulator(graph, ConstantDelay(1.0))
        simulator.add_processes([Chatterbox(i) for i in range(3)])
        stats = simulator.run(max_events=50)
        assert stats.terminated_early
        assert stats.delivered_messages == 50

    def test_run_stops_after_the_last_awaited_decision(self):
        class Decider(RecordingProcess):
            def on_message(self, sender, payload):
                super().on_message(sender, payload)
                self.decide(payload)

        graph = complete_digraph(3)
        simulator = Simulator(graph, ConstantDelay(1.0))
        receiver = Decider(1)
        other = RecordingProcess(2)
        simulator.add_processes([Broadcaster(0, "m"), receiver, other])
        stats = simulator.run(until_decided=[1])
        # Both copies arrive at t = 1; node 1's comes first and ends the run.
        assert len(receiver.received) == 1 and not other.received
        assert stats.delivered_messages == 1 and not stats.terminated_early
        assert simulator.pending_events() == 1
        # Every awaited node decided already: the next run ends after one
        # more delivery.
        assert simulator.run(until_decided=[1]).delivered_messages == 2
        assert simulator.pending_events() == 0

    def test_decisions_before_the_loop_stop_after_one_delivery(self):
        class DecideAtStart(Broadcaster):
            def on_start(self):
                super().on_start()
                self.decide(self.payload)

        graph = complete_digraph(3)
        simulator = Simulator(graph, ConstantDelay(1.0))
        simulator.add_processes([DecideAtStart(node, "m") for node in graph.nodes])
        stats = simulator.run(until_decided=graph.nodes)
        assert stats.delivered_messages == 1 and not stats.terminated_early
        assert simulator.pending_events() == 5

    def test_max_events_can_come_before_the_decisions(self):
        class DecideOnSecond(RecordingProcess):
            def on_message(self, sender, payload):
                super().on_message(sender, payload)
                if len(self.received) == 2:
                    self.decide(payload)

        graph = complete_digraph(3)
        simulator = Simulator(graph, ConstantDelay(1.0))
        deciders = [DecideOnSecond(1), DecideOnSecond(2)]
        simulator.add_processes([Broadcaster(0, "m"), *deciders])
        stats = simulator.run(max_events=1, until_decided=[1, 2])
        assert stats.terminated_early and stats.delivered_messages == 1
        assert not any(process.decided for process in deciders)

    def test_decision_on_the_last_allowed_event_is_not_early(self):
        class Decider(RecordingProcess):
            def on_message(self, sender, payload):
                super().on_message(sender, payload)
                self.decide(payload)

        graph = complete_digraph(3)
        simulator = Simulator(graph, ConstantDelay(1.0))
        simulator.add_processes([Broadcaster(0, "m"), Decider(1), RecordingProcess(2)])
        stats = simulator.run(max_events=1, until_decided=[1])
        assert stats.delivered_messages == 1 and not stats.terminated_early
        assert simulator.pending_events() == 1

    def test_fifo_links_preserve_order(self):
        graph = DiGraph(edges=[(0, 1)])

        class Burst(Process):
            def on_start(self):
                for index in range(5):
                    self.send(1, index)

        received = []

        class OrderedSink(Process):
            def on_message(self, sender, payload):
                received.append(payload)

        # A constant delay per link makes the link FIFO: equal arrival
        # times break ties by send order.
        simulator = Simulator(graph, fifo_link_delays(graph, 3), seed=3)
        simulator.add_processes([Burst(0), OrderedSink(1)])
        simulator.run()
        assert received == [0, 1, 2, 3, 4]

    def test_zero_delay_model_rejected(self):
        class BadDelay(ConstantDelay):
            def delay(self, sender, receiver, payload, time, rng):
                return 0.0

        graph = complete_digraph(2)
        simulator = Simulator(graph, BadDelay(1.0))
        simulator.add_processes([Broadcaster(0, "x"), RecordingProcess(1)])
        with pytest.raises(SchedulerError):
            simulator.run()

    def test_outputs_and_all_decided(self):
        graph = complete_digraph(2)
        simulator = Simulator(graph)
        deciders = [TimerUser(0), TimerUser(1)]
        simulator.add_processes(deciders)
        simulator.run()
        assert simulator.all_decided()
        assert simulator.outputs() == {0: "wake", 1: "wake"}


class TestBatchedSends:
    """``Context.send_many`` is one call per flood, never a different run."""

    class Flooder(Process):
        """Floods two rounds of payloads, batched or one send at a time."""

        def __init__(self, node_id, batched):
            super().__init__(node_id)
            self.batched = batched

        def flood(self, payload):
            context = self.require_context()
            receivers = sorted(context.out_neighbors)
            if self.batched:
                context.send_many(receivers, payload)
            else:
                for receiver in receivers:
                    context.send(receiver, payload)

        def on_start(self):
            self.flood((self.node_id,))

        def on_message(self, sender, payload):
            if len(payload) < 3:
                self.flood(payload + (self.node_id,))

    def _trace(self, batched, delay):
        graph = complete_digraph(4)
        simulator = Simulator(graph, delay, seed=11)
        trace = []
        processes = [self.Flooder(node, batched) for node in graph.nodes]
        for process in processes:
            deliver = process.on_message

            def recording(sender, payload, node=process.node_id, deliver=deliver):
                trace.append((simulator.now, sender, node, payload))
                deliver(sender, payload)

            process.on_message = recording
        simulator.add_processes(processes)
        stats = simulator.run()
        return trace, stats.sent_messages, simulator.rng.random()

    @pytest.mark.parametrize(
        "delay",
        [UniformDelay(0.5, 2.0), ConstantDelay(1.0), fifo_link_delays(complete_digraph(4), 5)],
        ids=["uniform", "constant", "per-link-fifo"],
    )
    def test_batched_flood_matches_single_sends(self, delay):
        single = self._trace(False, delay)
        batched = self._trace(True, delay)
        assert batched == single
        assert single[1] == len(single[0]) > 0

    def test_inlined_uniform_draw_is_random_uniform(self):
        class CalledUniform(UniformDelay):
            """A subclass: the simulator calls its ``delay`` (``rng.uniform``)."""

        inlined = self._trace(True, UniformDelay(0.5, 2.0))
        called = self._trace(False, CalledUniform(0.5, 2.0))
        assert inlined == called

    def test_send_many_requires_every_edge(self):
        graph = DiGraph(edges=[(0, 1)])
        simulator = Simulator(graph)
        sender = Process(0)
        simulator.add_processes([sender, RecordingProcess(1)])
        with pytest.raises(SimulationError):
            sender.require_context().send_many([1, 2], "x")
        assert simulator.pending_events() == 0

"""The COMPLETE (FIFO-flood) bookkeeping of one BW node against a literal,
path-tuple-keyed oracle (``tests/_oracles.py``).

A node keys its counter prefixes, stored announcements, relay rule and
parking index by the shared path id, falling back to the path tuple for a
path without one (the path table is full).  These tests replay COMPLETE
deliveries into one :class:`BWProcess` — shuffled, dropped, duplicated,
with gaps in the counters, forged origins and forged hops — and compare
every observable of that bookkeeping with :class:`FifoFloodOracle` after
each delivery.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _oracles import FifoFloodOracle, fifo_link_delays, simple_paths_inside
from repro.algorithms.base import ConsensusConfig
from repro.algorithms.bw import BWProcess, create_bw_processes
from repro.algorithms.messages import CompleteMessage, ValueMessage, sort_value_pairs
from repro.algorithms.topology import TopologyKnowledge
from repro.graphs.generators import complete_digraph, figure_1a
from repro.network.node import Context
from repro.network.simulator import Simulator

CONFIG = ConsensusConfig(f=1, epsilon=1e-3, input_low=0.0, input_high=1.0)

#: graph name → (graph builder, receiving node, a hop that is not a node).
GRAPHS = {
    "figure-1a": (figure_1a, "v1", "ghost"),
    "clique4": (lambda: complete_digraph(4), 3, 99),
}

_KNOWLEDGE = {}


def knowledge(name: str, full_table: bool) -> TopologyKnowledge:
    """One knowledge instance per graph and table mode, shared by examples.

    With ``full_table`` the shared path table takes no path beyond the
    honest ones, so every forged path has no id and is keyed by its tuple.
    """
    key = (name, full_table)
    topology = _KNOWLEDGE.get(key)
    if topology is None:
        topology = _KNOWLEDGE[key] = TopologyKnowledge(GRAPHS[name][0](), CONFIG.f)
        table = topology.path_table()
        if full_table:
            table.limit = len(table)
    return topology


def inputs_of(graph):
    return {node: index / len(graph.nodes) for index, node in enumerate(graph.nodes)}


def announcing_node(topology, node):
    """A bound node that has received every policy path's value, so each of
    its threads has announced COMPLETE; returns it and its send log."""
    graph = topology.graph
    inputs = inputs_of(graph)
    process = BWProcess(node, graph, inputs[node], CONFIG, topology=topology)
    sent = []
    process.bind(
        Context(
            node_id=node,
            out_neighbors=graph.successors(node),
            in_neighbors=graph.predecessors(node),
            send=lambda sender, receiver, payload: sent.append((receiver, payload)),
            set_timer=lambda owner, delay, tag: None,
            clock=lambda: 0.0,
            send_many=lambda sender, receivers, payload: sent.extend(
                (receiver, payload) for receiver in receivers
            ),
            decided=lambda node: None,
        )
    )
    process.on_start()
    for path in sorted(topology.required_paths(node, frozenset())):
        if len(path) > 1:
            process.on_message(path[-2], ValueMessage(0, inputs[path[0]], path[:-1]))
    # Every thread announced: its own COMPLETE is stored under the path ⟨node⟩.
    state = process._rounds[0]
    own_id = process._path_record((node,))[2]
    assert all((node, fault_set, own_id) in state.complete_messages for fault_set in state.trackers)
    return process, sent


def path_key(process, path):
    """How the node keys ``path``: its shared id, or the tuple without one."""
    path_id = process._path_record(path)[2]
    return path if path_id < 0 else path_id


def key_path(process, key):
    return process.topology.path_table().paths[key] if isinstance(key, int) else key


@st.composite
def schedules(draw, name):
    """COMPLETE copies ``(origin, fault set, values, counter, full path)``.

    Each origin announces some of its threads' sets, numbered by its FIFO
    counter in a drawn order, over every simple path to the node; the copies
    are shuffled, a tail is dropped, and some are repeated or twisted: a
    gap in the counter, a forged origin, a forged first hop, a repeated hop
    (the path is no longer simple), other values.
    """
    _, node, ghost = GRAPHS[name]
    topology = knowledge(name, False)
    graph = topology.graph
    every_node = frozenset(graph.nodes)
    inputs = inputs_of(graph)
    copies = []
    for origin in topology.nodes:
        if origin == node:
            continue
        paths = sorted(simple_paths_inside(graph, every_node, origin, node))
        candidates = topology.fault_candidates[origin]
        announced = draw(st.permutations(candidates))[: draw(st.integers(1, len(candidates)))]
        for counter, fault_set in enumerate(announced, start=1):
            values = sort_value_pairs(
                (member, inputs[member]) for member in graph.nodes if member not in fault_set
            )
            copies.extend((origin, fault_set, values, counter, path) for path in paths)
    copies = draw(st.permutations(copies))
    copies = copies[: draw(st.integers(len(copies) // 2, len(copies)))]
    twists = draw(
        st.lists(
            st.tuples(
                st.integers(0, len(copies) - 1),
                st.sampled_from(("repeat", "gap", "origin", "forged-hop", "loop", "values")),
                st.sampled_from(topology.nodes),
            ),
            max_size=16,
        )
    )
    for position, twist, other in sorted(twists, key=lambda item: -item[0]):
        origin, fault_set, values, counter, path = copies[position]
        if twist == "gap":
            counter += 2
        elif twist == "origin" and other not in (origin, node):
            origin = other
        elif twist == "forged-hop":
            path = (ghost,) + path
        elif twist == "loop" and len(path) > 2:
            path = (path[-2],) + path
        elif twist == "values":
            values = values + ((other, 2.0),)
        copies.insert(position + 1, (origin, fault_set, values, counter, path))
    return copies


def replay_against_the_oracle(name, full_table, copies):
    _, node, _ = GRAPHS[name]
    topology = knowledge(name, full_table)
    process, sent = announcing_node(topology, node)
    oracle = FifoFloodOracle(topology.graph, node)
    for _, payload in sent:
        if isinstance(payload, CompleteMessage):
            oracle.announce(payload)
    state = process._rounds[0]
    for origin, fault_set, values, counter, path in copies:
        del sent[:]
        message = CompleteMessage(0, origin, fault_set, values, counter, path[:-1])
        process.on_message(path[-2], message)
        expected_relays = oracle.receive(path[-2], message)

        relays = [
            (receiver, (p.round, p.origin, p.fault_set, p.values, p.fifo_counter, p.path))
            for receiver, p in sent
            if isinstance(p, CompleteMessage)
        ]
        assert relays == expected_relays
        assert all(type(p) is CompleteMessage for _, p in sent if isinstance(p, CompleteMessage))

        # A stored announcement is ``(values, counter, path mask)``: its key
        # and round already fix the rest of the oracle's content key.
        stored = {
            (0, origin, fault_set, key_path(process, key)): entry[:2]
            for (origin, fault_set, key), entry in state.complete_messages.items()
        }
        assert stored == {key: entry[:2] for key, entry in oracle.stored.items()}

        for (origin, path), seen in oracle.counters.items():
            key = path_key(process, path)
            for counter in range(1, max(seen) + 2):
                assert process._fifo_received(origin, key, counter) == oracle.fifo_received(
                    origin, path, counter
                )

        if process.current_round == 0:
            for fault_set, tracker in state.trackers.items():
                position = oracle.scan_position(0, fault_set)
                assert tracker.scan_pos == position
                assert tracker.fifo_received_all == (
                    position == len(oracle.wait_list(fault_set))
                )
    return process


SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestIdKeyedFifoFlood:
    @pytest.mark.parametrize("full_table", [False, True], ids=["table", "full-table"])
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    @SETTINGS
    @given(data=st.data())
    def test_receipts_match_the_tuple_keyed_oracle(self, name, full_table, data):
        copies = data.draw(schedules(name))
        process = replay_against_the_oracle(name, full_table, copies)
        forged = [path for _, _, _, _, path in copies if path[0] == GRAPHS[name][2]]
        for path in forged:
            assert isinstance(path_key(process, path), tuple) == full_table

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_every_copy_in_fifo_order_ends_the_round(self, name):
        _, node, _ = GRAPHS[name]
        topology = knowledge(name, False)
        graph = topology.graph
        inputs = inputs_of(graph)
        copies = []
        for origin in topology.nodes:
            if origin == node:
                continue
            paths = sorted(simple_paths_inside(graph, frozenset(graph.nodes), origin, node))
            for counter, fault_set in enumerate(topology.fault_candidates[origin], start=1):
                values = sort_value_pairs(
                    (member, inputs[member]) for member in graph.nodes if member not in fault_set
                )
                copies.extend((origin, fault_set, values, counter, path) for path in paths)
        process = replay_against_the_oracle(name, False, copies)
        assert process.current_round == 1
        assert not process._fifo_pending


class TestAnnouncementValidation:
    """A malformed value map is ignored on every receipt, including a repeat
    of the very object; only maps that passed are remembered."""

    @pytest.mark.parametrize(
        "values",
        [
            pytest.param(((1, 0.5), ([2], 0.5)), id="unhashable-member"),
            pytest.param(((1, 0.5), (2, 0.5, 3)), id="member-not-a-pair"),
            pytest.param(((1, 0.5), 7), id="member-not-a-sequence"),
        ],
    )
    def test_malformed_values_are_ignored_every_time(self, values):
        topology = knowledge("clique4", False)
        process, sent = announcing_node(topology, 3)
        state = process._rounds[0]
        stored = dict(state.complete_messages)
        for _ in range(3):
            del sent[:]
            process.on_message(1, CompleteMessage(0, 1, frozenset({0}), values, 1, (1,)))
            assert not sent
            assert state.complete_messages == stored
            assert not process._fifo_prefix and not process._fifo_pending
            assert id(values) not in process._valid_values

    def test_a_valid_map_is_checked_once_per_object(self):
        topology = knowledge("clique4", False)
        process, _ = announcing_node(topology, 3)
        values = sort_value_pairs({0: 0.0, 1: 0.25, 2: 0.5}.items())
        for path in ((1,), (1, 2), (1, 0)):
            process.on_message(path[-1], CompleteMessage(0, 1, frozenset({3}), values, 1, path))
        assert process._valid_values == {id(values): values}
        # An equal map in another object is checked on its own.
        copy = tuple(list(values))
        process.on_message(2, CompleteMessage(0, 2, frozenset(), copy, 1, (2,)))
        assert process._valid_values == {id(values): values, id(copy): copy}


class TestNonSimplePaths:
    """FIFO flooding runs over simple paths only: a COMPLETE copy whose
    extended path repeats a hop is dropped before it is stored, numbered or
    relayed, whether or not the path has a shared record already."""

    @pytest.mark.parametrize(
        "path",
        [
            pytest.param((1, 2, 1), id="redundant-honest-path"),
            pytest.param((1, 2, 1, 2), id="path-outside-the-table"),
        ],
    )
    def test_a_copy_over_a_non_simple_path_is_dropped(self, path):
        topology = TopologyKnowledge(complete_digraph(4), CONFIG.f)
        process, sent = announcing_node(topology, 3)
        state = process._rounds[0]
        stored = dict(state.complete_messages)
        size = len(topology.path_table())
        del sent[:]
        process.on_message(path[-1], CompleteMessage(0, 1, frozenset({0}), ((1, 0.5),), 1, path))
        assert not sent
        assert state.complete_messages == stored
        assert not state.relayed_complete_keys
        assert len(topology.path_table()) == size
        assert not process._fifo_prefix and not process._fifo_pending


class TestPendingCounters:
    def test_an_in_order_honest_cell_allocates_no_pending_counter_set(self):
        graph = complete_digraph(4)
        topology = TopologyKnowledge(graph, CONFIG.f)
        processes = create_bw_processes(graph, inputs_of(graph), CONFIG, topology=topology)
        simulator = Simulator(graph, fifo_link_delays(graph, seed=3))
        simulator.add_processes(processes.values())
        simulator.run(max_events=2_000_000)
        assert all(process.decided for process in processes.values())
        for process in processes.values():
            assert process._fifo_prefix
            assert not process._fifo_pending

    def test_a_counter_past_a_gap_waits_until_the_gap_fills(self):
        process, _ = announcing_node(knowledge("clique4", False), 3)
        key = (1, path_key(process, (1, 3)))
        for counter in (3, 5, 3):
            process._note_fifo_counter(key, counter)
        assert process._fifo_prefix.get(key, 0) == 0
        assert process._fifo_pending == {key: {3, 5}}
        process._note_fifo_counter(key, 1)
        assert process._fifo_prefix[key] == 1 and process._fifo_pending == {key: {3, 5}}
        process._note_fifo_counter(key, 2)
        assert process._fifo_prefix[key] == 3 and process._fifo_pending == {key: {5}}
        process._note_fifo_counter(key, 4)
        assert process._fifo_prefix[key] == 5 and not process._fifo_pending


class TestCrossRoundWake:
    """A COMPLETE of a later round that fills the gap a current-round thread
    waits on wakes that thread and evaluates the current round."""

    def test_a_thread_woken_by_a_later_rounds_complete_is_evaluated(self):
        topology = knowledge("clique4", False)
        graph = topology.graph
        process, _ = announcing_node(topology, 3)
        inputs = inputs_of(graph)
        fault_set = frozenset({0})
        values = sort_value_pairs(
            (member, inputs[member]) for member in graph.nodes if member not in fault_set
        )
        every_node = frozenset(graph.nodes)
        # Origin 1's round-0 announcement carries counter 2, so it waits for
        # counter 1, which arrives in origin 1's round-1 announcement.
        for round_index, origin, counter in ((0, 1, 2), (0, 2, 1), (1, 1, 1)):
            for path in sorted(simple_paths_inside(graph, every_node, origin, 3)):
                message = CompleteMessage(round_index, origin, fault_set, values, counter, path[:-1])
                process.on_message(path[-2], message)
        state = process._rounds[0]
        tracker = state.trackers[fault_set]
        assert tracker not in state.woken
        assert tracker.scan_pos == len(topology.fifo_wait_list(3, fault_set))
        assert tracker.fifo_received_all

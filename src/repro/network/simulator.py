"""Discrete-event simulator for asynchronous message-passing over a digraph.

The simulator realizes the paper's system model (Section 2):

* nodes communicate only along the directed edges of ``G``;
* links are reliable — every sent message is eventually delivered exactly
  once — but delays are arbitrary (controlled by a
  :class:`~repro.network.delays.DelayModel`) and links are not FIFO: the
  paper's protocols build FIFO order themselves;
* computation is event-driven: a process reacts to deliveries.

Runs are deterministic for a fixed seed, delay model and protocol, which the
test-suite relies on.  The simulator also exposes counters (messages sent
and delivered, timer and fault events) consumed by the experiment metrics.

Event representation
--------------------
A full grid delivers millions of events, so the event queue holds plain
5-tuples ``(time, sequence, slot, a, b)`` rather than event objects, and
every event is dispatched as ``handlers[slot](a, b)`` through a table built
at run start.  Node ids are interned to dense integers ``0..n-1`` at
construction, and the slot says what the event is:

* ``slot < n`` — a message to node ``slot``: ``a`` is the sender, ``b`` the
  payload, and the handler is the receiver's ``on_message``;
* ``n <= slot < 2n`` — a timer of node ``slot - n`` with tag ``a``;
* ``2n`` — the stop event (see below);
* ``2n + 1`` — a fault control event (action code ``a``, subject ``b``).

Heap ordering compares ``(time, sequence)`` — ``sequence`` is unique, so the
comparison never reaches the tail — which skips an object construction and
a rich-comparison call per event.

The fault-free loop of :meth:`Simulator.run` only pops, sets the clock and
dispatches; it counts nothing per event.  ``delivered_messages`` is derived
when the run ends (messages sent minus messages still queued) and timers
count themselves in their handler, so both stay exact.  Stopping once the
honest nodes decided costs nothing per event either: :meth:`Process.decide
<repro.network.node.Process.decide>` reports each node's first decision
through its context, and the decision of the last node the run waits for
pushes a stop event keyed ``(now, -1)``.  Nothing queued is earlier, so it
is the next event popped, and the run ends right after the event on which
that node decided.  When every awaited node decided before the loop, each
handler of the run pushes the stop event after it ran, so the run ends
after the first message or timer handed to a node.

Fault injection
---------------
An optional :class:`~repro.network.faults.FaultSchedule` compiles into the
same heap as control events: link down/up and node crash/recover windows
toggle down-sets consulted on the send and delivery paths, and per-message
loss, retry/backoff and duplication draw from a private fault RNG that never
touches the delay RNG.  An **inactive** schedule (zero intensity) leaves
every hot path untouched — :meth:`Simulator.run` only takes the slower
fault-aware loop when the schedule can actually perturb the run (or when
the delay model tracks in-flight counts).  The normative in-flight-message
semantics live in the :mod:`repro.network.faults` module docstring.
"""

from __future__ import annotations

import heapq
import random
import sys
from dataclasses import dataclass
from itertools import repeat
from typing import Any, Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

from repro.exceptions import SchedulerError, SimulationError
from repro.graphs.digraph import DiGraph
from repro.network.delays import ConstantDelay, DelayModel, UniformDelay
from repro.network.faults import LINK_DOWN, LINK_UP, NODE_DOWN, FaultSchedule
from repro.network.node import Context, Process

NodeId = Hashable

#: Control-event action codes (``a`` of a control event).
_ACT_LINK_DOWN = 0
_ACT_LINK_UP = 1
_ACT_NODE_DOWN = 2
_ACT_NODE_UP = 3

#: Hard ceiling on any single retry backoff (capped exponential growth).
_BACKOFF_CAP = 8.0


class _StopRun(Exception):
    """Raised by the stop event's handler: every awaited node decided."""


def _stop_handler(a: Any, b: Any) -> None:
    raise _StopRun


def _ignore(a: Any, b: Any) -> None:
    """Handler of a node without a process: the delivery is lost."""


@dataclass
class SimulationStats:
    """Counters produced by a simulation run.

    The fault counters stay zero on runs without an active fault schedule.
    ``sent_messages`` counts network entries: a message deferred in flight
    and re-entering the link on recovery, or a retransmitted/duplicated
    copy, counts again.
    """

    delivered_messages: int = 0
    sent_messages: int = 0
    timer_events: int = 0
    final_time: float = 0.0
    terminated_early: bool = False
    #: Messages lost to the fault schedule: link-down drops, receiver-down
    #: deliveries, and sends whose every retry attempt was lost.
    dropped_messages: int = 0
    #: Extra copies injected by the duplication fault.
    duplicated_messages: int = 0
    #: Messages buffered on a downed link (``on_down="defer"``); copies
    #: still buffered at quiescence were lost with the link.
    deferred_messages: int = 0
    #: Sends suppressed because the sending node was down.
    suppressed_messages: int = 0
    #: Timer events discarded because their owner was down.
    suppressed_timers: int = 0
    #: Successful-but-retried transmissions (total extra attempts).
    retransmissions: int = 0
    #: Fault control events (link/node down/up) processed from the heap.
    fault_control_events: int = 0


class Simulator:
    """Event-driven simulation of processes on a directed communication graph.

    Parameters
    ----------
    graph:
        The communication topology; an exception is raised when a process
        tries to send over a non-existent edge.
    delay_model:
        Link-latency policy (default: constant delay of 1).
    seed:
        Seed of the simulator's private RNG (delay sampling); runs are
        reproducible given the same seed and protocol behaviour.
    faults:
        Optional compiled :class:`~repro.network.faults.FaultSchedule`.  An
        inactive schedule (zero intensity) is indistinguishable from
        ``None``: same RNG stream, same event sequence, same stats.
    """

    def __init__(
        self,
        graph: DiGraph,
        delay_model: Optional[DelayModel] = None,
        seed: Optional[int] = None,
        faults: Optional[FaultSchedule] = None,
    ) -> None:
        self.graph = graph
        self.delay_model = delay_model or ConstantDelay(1.0)
        self.delay_model.validate(graph)
        self.rng = random.Random(seed)
        self._delay = self.delay_model.delay  # bound once: one call per send
        #: ``(low, high - low)`` of the default experiment model, whose draw
        #: :meth:`_enqueue_many` inlines as ``low + (high - low) * random()``
        #: — bit-for-bit what ``random.uniform`` computes.
        self._uniform: Optional[Tuple[float, float]] = None
        if type(self.delay_model) is UniformDelay:
            low, high = self.delay_model.low, self.delay_model.high
            self._uniform = (low, high - low)
        self.processes: Dict[NodeId, Process] = {}
        # Dense interning of the node universe (fixed at construction).
        self._nodes: List[NodeId] = list(graph.nodes)
        self._node_index: Dict[NodeId, int] = {
            node: index for index, node in enumerate(self._nodes)
        }
        self._n = len(self._nodes)
        #: Event slots past the message slots ``0..n-1`` (module docstring).
        self._stop_slot = 2 * self._n
        self._control_slot = 2 * self._n + 1
        self._process_by_index: List[Optional[Process]] = [None] * self._n
        self._queue: List[tuple] = []
        self._sequence = 0
        self._time = 0.0
        self._started = False
        self.stats = SimulationStats()
        #: Nodes whose first decision was reported (see :meth:`_note_decision`).
        self._decided: Set[NodeId] = set()
        #: The nodes the current run still waits for (``None``: no such wait).
        self._awaiting: Optional[Set[NodeId]] = None
        # -- fault-injection state (inert unless the schedule is active) --
        self.faults = faults
        self._faults_active = faults is not None and faults.active
        self._down_links: set = set()  # packed link keys currently down
        self._down_nodes: set = set()  # node indexes currently down
        #: packed link key → [(receiver_index, sender, payload), ...] held
        #: while the link is down (``on_down="defer"`` semantics).
        self._deferred: Dict[int, List[tuple]] = {}
        self._fault_rng = (
            random.Random(faults.runtime_seed()) if self._faults_active else None
        )
        # -- per-link in-flight tracking (only when the delay model asks) --
        self._inflight: Dict[int, int] = {}
        self._track_inflight = bool(getattr(self.delay_model, "needs_link_load", False))
        if self._track_inflight:
            self.delay_model.bind_load_probe(self._link_load)

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------
    def add_process(self, process: Process) -> None:
        """Register ``process`` on its node; the node must exist in the graph."""
        node_id = process.node_id
        index = self._node_index.get(node_id)
        if index is None:
            raise SimulationError(f"node {node_id!r} is not part of the communication graph")
        if node_id in self.processes:
            raise SimulationError(f"node {node_id!r} already has a process")
        self.processes[node_id] = process
        self._process_by_index[index] = process
        process.bind(
            Context(
                node_id=node_id,
                out_neighbors=self.graph.successors(node_id),
                in_neighbors=self.graph.predecessors(node_id),
                send=self._enqueue_message,
                set_timer=self._enqueue_timer,
                clock=lambda: self._time,
                send_many=self._enqueue_many,
                decided=self._note_decision,
            )
        )

    def add_processes(self, processes: Iterable[Process]) -> None:
        """Register several processes at once."""
        for process in processes:
            self.add_process(process)

    def unbind_processes(self) -> None:
        """Detach every registered process once the run is over.

        Each process's context holds callbacks into this simulator, which
        holds the processes: the run's processes, message sets and event
        heap form one reference cycle.  Unbinding breaks it (a load-probing
        delay model's probe too), so they are freed as soon as the last
        outside reference goes instead of waiting for the cyclic garbage
        collector.  The processes keep their state and outputs.
        """
        for process in self.processes.values():
            process.unbind()
        if self._track_inflight:
            self.delay_model.bind_load_probe(None)

    # ------------------------------------------------------------------
    # event production
    # ------------------------------------------------------------------
    def _enqueue_message(self, sender: NodeId, receiver: NodeId, payload: Any) -> None:
        self._enqueue_many(sender, (receiver,), payload)

    def _enqueue_many(self, sender: NodeId, receivers: Sequence[NodeId], payload: Any) -> None:
        """Enqueue one copy of ``payload`` per receiver, in order.

        The one fault-free send path: a flood draws its latencies and
        sequence numbers exactly as the same sends made one at a time would.
        """
        if self._faults_active:
            for receiver in receivers:
                self._send_with_faults(sender, receiver, payload)
            return
        node_index = self._node_index
        uniform = self._uniform
        if uniform is None or self._track_inflight:
            link_base = node_index[sender] * self._n
            for receiver in receivers:
                receiver_index = node_index[receiver]
                self._push_message(
                    sender, receiver, receiver_index, link_base + receiver_index, payload
                )
            return
        low, span = uniform
        random_draw = self.rng.random
        time = self._time
        queue = self._queue
        heappush = heapq.heappush
        sequence = self._sequence
        for receiver in receivers:
            sequence += 1
            heappush(
                queue,
                (
                    time + (low + span * random_draw()),
                    sequence,
                    node_index[receiver],
                    sender,
                    payload,
                ),
            )
        self._sequence = sequence
        self.stats.sent_messages += len(receivers)

    def _link_load(self, sender: NodeId, receiver: NodeId) -> int:
        """In-flight message count on a directed link (congestion-delay probe)."""
        node_index = self._node_index
        return self._inflight.get(node_index[sender] * self._n + node_index[receiver], 0)

    def _push_message(
        self,
        sender: NodeId,
        receiver: NodeId,
        receiver_index: int,
        link_key: int,
        payload: Any,
        extra_delay: float = 0.0,
    ) -> None:
        """Enqueue one message copy, drawing its latency at ``now + extra_delay``."""
        time = self._time + extra_delay
        latency = self._delay(sender, receiver, payload, time, self.rng)
        if latency <= 0:
            raise SchedulerError("delay models must return strictly positive latencies")
        self._sequence += 1
        heapq.heappush(
            self._queue, (time + latency, self._sequence, receiver_index, sender, payload)
        )
        if self._track_inflight:
            self._inflight[link_key] = self._inflight.get(link_key, 0) + 1
        self.stats.sent_messages += 1

    def _send_with_faults(self, sender: NodeId, receiver: NodeId, payload: Any) -> None:
        """The fault-aware send path (see :mod:`repro.network.faults` semantics)."""
        schedule = self.faults
        stats = self.stats
        node_index = self._node_index
        sender_index = node_index[sender]
        if sender_index in self._down_nodes:
            stats.suppressed_messages += 1
            return
        receiver_index = node_index[receiver]
        link_key = sender_index * self._n + receiver_index
        if link_key in self._down_links:
            if schedule.on_down == "defer":
                self._deferred.setdefault(link_key, []).append((receiver_index, sender, payload))
                stats.deferred_messages += 1
            else:
                stats.dropped_messages += 1
            return
        extra_delay = 0.0
        if schedule.drop_probability > 0.0:
            random_draw = self._fault_rng.random
            probability = schedule.drop_probability
            attempt = 0
            while random_draw() < probability:
                attempt += 1
                if attempt > schedule.max_retries:
                    stats.dropped_messages += 1
                    return
                extra_delay += min(schedule.retry_backoff * (2 ** (attempt - 1)), _BACKOFF_CAP)
            stats.retransmissions += attempt
        self._push_message(sender, receiver, receiver_index, link_key, payload, extra_delay)
        if (
            schedule.duplicate_probability > 0.0
            and self._fault_rng.random() < schedule.duplicate_probability
        ):
            stats.duplicated_messages += 1
            self._push_message(sender, receiver, receiver_index, link_key, payload, extra_delay)

    def _enqueue_timer(self, owner: NodeId, delay: float, tag: Any) -> None:
        self._sequence += 1
        heapq.heappush(
            self._queue,
            (self._time + delay, self._sequence, self._n + self._node_index[owner], tag, None),
        )

    def _note_decision(self, node_id: NodeId) -> None:
        """A node's first decision (reported by :meth:`Process.decide`).

        When it is the last node the current run waits for, the stop event
        is pushed under ``(now, -1)``: every queued event is later (or, at
        ``now``, has a positive sequence), so the run ends right after the
        event being handled.
        """
        self._decided.add(node_id)
        awaiting = self._awaiting
        if awaiting is not None and node_id in awaiting:
            awaiting.discard(node_id)
            if not awaiting:
                self._push_stop()

    def _push_stop(self) -> None:
        self._awaiting = None
        heapq.heappush(self._queue, (self._time, -1, self._stop_slot, None, None))

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._time

    def pending_events(self) -> int:
        """Number of events still queued."""
        return len(self._queue)

    def start(self) -> None:
        """Invoke ``on_start`` on every registered process (idempotent).

        When a fault schedule is active its link/node windows are compiled
        into the event heap first (windows open at ``t <= 0`` are applied
        immediately), so control events interleave deterministically with
        the messages ``on_start`` produces.
        """
        if self._started:
            return
        self._started = True
        if self._faults_active:
            self._compile_fault_schedule()
        for node_id in sorted(self.processes, key=repr):
            self.processes[node_id].on_start()

    def _compile_fault_schedule(self) -> None:
        """Push the schedule's control events into the heap as plain tuples."""
        node_index = self._node_index
        for time, action, subject in self.faults.control_events():
            if action in (LINK_DOWN, LINK_UP):
                sender, receiver = subject
                sender_index = node_index.get(sender)
                receiver_index = node_index.get(receiver)
                if (
                    sender_index is None
                    or receiver_index is None
                    or not self.graph.has_edge(sender, receiver)
                ):
                    raise SimulationError(
                        f"fault schedule references link {sender!r}->{receiver!r}, "
                        "which is not in the graph"
                    )
                code = _ACT_LINK_DOWN if action == LINK_DOWN else _ACT_LINK_UP
                packed = sender_index * self._n + receiver_index
            else:
                index = node_index.get(subject)
                if index is None:
                    raise SimulationError(f"fault schedule references unknown node {subject!r}")
                code = _ACT_NODE_DOWN if action == NODE_DOWN else _ACT_NODE_UP
                packed = index
            if time <= 0.0:
                self.stats.fault_control_events += 1
                self._apply_control(code, packed)
            else:
                self._sequence += 1
                heapq.heappush(
                    self._queue, (time, self._sequence, self._control_slot, code, packed)
                )

    def _apply_control(self, code: int, subject: int) -> None:
        """Toggle down-state; a link recovery re-injects its deferred backlog."""
        if code == _ACT_LINK_DOWN:
            self._down_links.add(subject)
        elif code == _ACT_LINK_UP:
            self._down_links.discard(subject)
            pending = self._deferred.pop(subject, None)
            if pending:
                receiver = self._nodes[subject % self._n]
                for receiver_index, sender, payload in pending:
                    self._push_message(sender, receiver, receiver_index, subject, payload)
        elif code == _ACT_NODE_DOWN:
            self._down_nodes.add(subject)
        else:
            self._down_nodes.discard(subject)

    def _handlers(self) -> List[Callable[[Any, Any], None]]:
        """The dispatch table of one run, indexed by event slot.

        Message slots hold the receivers' bound ``on_message``, read here
        once per run instead of once per event.  A timer's handler counts
        it in ``timer_events`` and calls its owner's ``on_timer``.  When
        the run waits for nodes that all decided before it (an empty
        awaited set), every handler pushes the stop event after it ran, so
        the run ends after the first message or timer it hands to a node
        (control events and suppressed deliveries reach no handler).
        """
        stats = self.stats

        def timer_handler(process: Optional[Process]) -> Callable[[Any, Any], None]:
            on_timer = process.on_timer if process is not None else None

            def fire(tag: Any, _: Any) -> None:
                stats.timer_events += 1
                if on_timer is not None:
                    on_timer(tag)

            return fire

        processes = self._process_by_index
        handlers: List[Callable[[Any, Any], None]] = [
            _ignore if process is None else process.on_message for process in processes
        ]
        handlers.extend(timer_handler(process) for process in processes)
        if self._awaiting is not None and not self._awaiting:
            push_stop = self._push_stop

            def then_stop(handler: Callable[[Any, Any], None]) -> Callable[[Any, Any], None]:
                def handle(a: Any, b: Any) -> None:
                    handler(a, b)
                    push_stop()

                return handle

            handlers = [then_stop(handler) for handler in handlers]
        handlers.append(_stop_handler)
        return handlers

    def _limit_reached(self) -> None:
        """``max_events`` events ran and the queue is not empty: a stop
        event pushed by the last of them still ends the run normally."""
        queue = self._queue
        if queue[0][2] == self._stop_slot:
            heapq.heappop(queue)
        else:
            self.stats.terminated_early = True

    def run(
        self,
        max_events: Optional[int] = None,
        until_decided: Optional[Iterable[NodeId]] = None,
    ) -> SimulationStats:
        """Run until quiescence, until ``max_events`` events ran, or until
        every node of ``until_decided`` decided.

        Parameters
        ----------
        max_events:
            Upper bound on processed events (safety valve for protocols with
            unbounded chatter).
        until_decided:
            Nodes whose decisions end the run: it stops right after the
            event on which the last of them decided, or, when all of them
            decided before the loop (in ``on_start`` or an earlier run),
            after the first message or timer handed to a node.  A decision
            counts when :meth:`Process.decide
            <repro.network.node.Process.decide>` reports it for that node
            id, so a Byzantine wrapper's inner process counts for its node.
        """
        try:
            self.start()
            if until_decided is not None:
                self._awaiting = set(until_decided) - self._decided
            if self._faults_active or self._track_inflight:
                # Fault checks and in-flight bookkeeping live in a separate
                # loop so fault-free sweeps keep the dispatch-only loop below.
                self._run_with_faults(max_events)
            else:
                self._run_dispatch_only(max_events)
        finally:
            self._awaiting = None
            self.stats.final_time = self._time
        return self.stats

    def _run_dispatch_only(self, max_events: Optional[int]) -> None:
        """The fault-free loop: pop, set the clock, dispatch.

        The inner loop pops at most as many events as the queue held when it
        started, so it never finds the queue empty and needs no check per
        event; the outer loop refills the budget.  ``delivered_messages``
        is settled afterwards: every message sent and no longer queued was
        delivered.
        """
        handlers = self._handlers()
        queue = self._queue
        heappop = heapq.heappop
        remaining = sys.maxsize if max_events is None else max_events
        try:
            while queue:
                if remaining <= 0:
                    self._limit_reached()
                    break
                batch = min(len(queue), remaining)
                remaining -= batch
                for _ in repeat(None, batch):
                    self._time, _, slot, a, b = heappop(queue)
                    handlers[slot](a, b)
        except _StopRun:
            pass
        finally:
            n = self._n
            queued = sum(1 for event in queue if event[2] < n)
            self.stats.delivered_messages = self.stats.sent_messages - queued

    def _run_with_faults(self, max_events: Optional[int]) -> None:
        """The fault-aware twin of the dispatch-only loop.

        Per event it also counts, toggles the down-sets on control events,
        passes messages through :meth:`_admit_message`, suppresses timers of
        down nodes and decrements in-flight counts for the congestion-delay
        probe.  Suppressed and control events count toward ``max_events``
        (they were popped).
        """
        handlers = self._handlers()
        queue = self._queue
        heappop = heapq.heappop
        stats = self.stats
        n = self._n
        node_index = self._node_index
        faults_active = self._faults_active
        track_inflight = self._track_inflight
        inflight = self._inflight
        down_nodes = self._down_nodes
        control_slot = self._control_slot
        events = 0
        try:
            while queue:
                if max_events is not None and events >= max_events:
                    self._limit_reached()
                    break
                event = heappop(queue)
                self._time = event[0]
                slot = event[2]
                events += 1
                if slot < n:
                    link_key = node_index[event[3]] * n + slot
                    if track_inflight:
                        inflight[link_key] -= 1
                    if faults_active and not self._admit_message(link_key, event):
                        continue
                    stats.delivered_messages += 1
                elif slot == control_slot:
                    stats.fault_control_events += 1
                    self._apply_control(event[3], event[4])
                    continue
                elif faults_active and slot - n in down_nodes:
                    stats.suppressed_timers += 1
                    continue
                handlers[slot](event[3], event[4])
        except _StopRun:
            pass

    def _admit_message(self, link_key: int, event: tuple) -> bool:
        """Delivery-time fault check; ``False`` when the message is not delivered."""
        stats = self.stats
        if link_key in self._down_links:
            if self.faults.on_down == "defer":
                self._deferred.setdefault(link_key, []).append((event[2], event[3], event[4]))
                stats.deferred_messages += 1
            else:
                stats.dropped_messages += 1
            return False
        if event[2] in self._down_nodes:
            stats.dropped_messages += 1
            return False
        return True

    # ------------------------------------------------------------------
    # conveniences
    # ------------------------------------------------------------------
    def outputs(self) -> Dict[NodeId, Any]:
        """Outputs of all decided processes."""
        return {
            node_id: process.output
            for node_id, process in self.processes.items()
            if process.decided
        }

    def all_decided(self, nodes: Optional[Iterable[NodeId]] = None) -> bool:
        """``True`` when every process (or every process in ``nodes``) decided."""
        targets = self.processes.keys() if nodes is None else nodes
        return all(self.processes[node].decided for node in targets)

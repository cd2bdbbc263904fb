"""Discrete-event simulator for asynchronous message-passing over a digraph.

The simulator realizes the paper's system model (Section 2):

* nodes communicate only along the directed edges of ``G``;
* links are reliable — every sent message is eventually delivered exactly
  once — but delays are arbitrary (controlled by a
  :class:`~repro.network.delays.DelayModel`) and links are not FIFO: the
  paper's protocols build FIFO order themselves;
* computation is event-driven: a process reacts to deliveries and to
  nothing else (the model is asynchronous, so there are no timers).

Runs are deterministic for a fixed seed, delay model and protocol, which the
test-suite relies on.  The simulator also exposes counters (messages sent
and delivered, fault events) consumed by the experiment metrics.

Event representation
--------------------
A full grid delivers millions of events, so the event queue holds plain
5-tuples ``(time, sequence, slot, a, b)`` rather than event objects, and
every event is dispatched as ``handlers[slot](a, b)`` through a table built
at run start.  Node ids are interned to dense integers ``0..n-1`` at
construction, and the slot says what the event is:

* ``slot < n`` — a message to node ``slot``: ``a`` is the sender, ``b`` the
  payload;
* ``n`` — the stop event (see below);
* ``n + 1`` — a fault control event (action code ``a``, subject ``b``).

Heap ordering compares ``(time, sequence)`` — ``sequence`` is unique, so the
comparison never reaches the tail — which skips an object construction and
a rich-comparison call per event.

:meth:`Simulator.run` has one loop, and it only pops, sets the clock and
dispatches; it counts nothing per event.  Everything else a run needs is a
handler in the table:

* a message slot holds the receiver's bound ``on_message`` — wrapped, only
  when the run needs them, by the fault schedule's admission handler and by
  the in-flight counter (see *Fault injection*);
* the control slot holds :meth:`Simulator._apply_control`, which counts the
  event and toggles the fault down-sets.

``delivered_messages`` is settled when the run ends: messages sent, minus
messages still queued, minus deliveries the admission handler turned away.
Stopping once the honest nodes decided costs nothing per event either:
:meth:`Process.decide <repro.network.node.Process.decide>` reports each
node's first decision through its context, and the decision of the last
node the run waits for pushes a stop event keyed ``(now, -1)``.  Nothing
queued is earlier, so it is the next event popped, and the run ends right
after the event on which that node decided.  When every awaited node decided
before the loop, each message handler of the run pushes the stop event after
it handed its message to the node, so the run ends after the first delivery;
control events and turned-away deliveries never push it.

Fault injection
---------------
An optional :class:`~repro.network.faults.FaultSchedule` compiles into the
same heap as control events: link down/up and node crash/recover windows
toggle down-sets consulted on the send and delivery paths, and per-message
loss, retry/backoff and duplication draw from a private fault RNG that never
touches the delay RNG.  When the schedule is active, every message slot's
handler is an admission handler: it applies the delivery-time rule (a
downed link drops or defers the message, a downed receiver loses it) and
hands the message to ``on_message`` only when it passes.  When the delay
model asks for link loads, an outer handler first decrements the link's
in-flight count.  An **inactive** schedule (zero intensity) installs no
wrapper: the table is the bare one of a fault-free run.  The normative
in-flight-message semantics live in the :mod:`repro.network.faults` module
docstring.
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
    #: Always 0 (the model has no timers); perfbench's tracer still reads it.
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
        self._stop_slot = self._n
        self._control_slot = self._n + 1
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
        #: Deliveries the admission handler turned away (see :meth:`_turn_away`).
        self._turned_away = 0
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
                self._apply_control(code, packed)
            else:
                self._sequence += 1
                heapq.heappush(
                    self._queue, (time, self._sequence, self._control_slot, code, packed)
                )

    def _apply_control(self, code: int, subject: int) -> None:
        """The control slot's handler: count the event and toggle down-state;
        a link recovery re-injects its deferred backlog."""
        self.stats.fault_control_events += 1
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
        once per run instead of once per event.  When the run waits for
        nodes that all decided before it (an empty awaited set), each
        message handler pushes the stop event after it ran, so the run ends
        after the first message handed to a node.  Under an active fault
        schedule each message handler is wrapped by :meth:`_admission`
        (outside the stop push, so a turned-away delivery never stops the
        run), and for a load-probing delay model by :meth:`_unloading`
        (outermost, so every popped message leaves the link's in-flight
        count).  A fault-free run without load probing gets the bare table.
        """
        handlers: List[Callable[[Any, Any], None]] = [
            _ignore if process is None else process.on_message
            for process in self._process_by_index
        ]
        if self._awaiting is not None and not self._awaiting:
            push_stop = self._push_stop

            def then_stop(handler: Callable[[Any, Any], None]) -> Callable[[Any, Any], None]:
                def handle(a: Any, b: Any) -> None:
                    handler(a, b)
                    push_stop()

                return handle

            handlers = [then_stop(handler) for handler in handlers]
        if self._faults_active:
            handlers = [self._admission(index, handler) for index, handler in enumerate(handlers)]
        if self._track_inflight:
            handlers = [self._unloading(index, handler) for index, handler in enumerate(handlers)]
        handlers.append(_stop_handler)
        handlers.append(self._apply_control)
        return handlers

    def _admission(
        self, receiver_index: int, handler: Callable[[Any, Any], None]
    ) -> Callable[[Any, Any], None]:
        """Message handler of receiver ``receiver_index`` under an active
        fault schedule: the delivery-time fault check.  It hands the message
        to ``handler`` unless the link or the receiver is down, in which
        case :meth:`_turn_away` takes it."""
        node_index = self._node_index
        n = self._n
        down_links = self._down_links
        down_nodes = self._down_nodes
        turn_away = self._turn_away

        def admit(sender: Any, payload: Any) -> None:
            link_key = node_index[sender] * n + receiver_index
            if link_key in down_links or receiver_index in down_nodes:
                turn_away(link_key, receiver_index, sender, payload)
            else:
                handler(sender, payload)

        return admit

    def _unloading(
        self, receiver_index: int, handler: Callable[[Any, Any], None]
    ) -> Callable[[Any, Any], None]:
        """Message handler of receiver ``receiver_index`` for a load-probing
        delay model: decrement the link's in-flight count, then call
        ``handler``."""
        node_index = self._node_index
        n = self._n
        inflight = self._inflight

        def unload(sender: Any, payload: Any) -> None:
            inflight[node_index[sender] * n + receiver_index] -= 1
            handler(sender, payload)

        return unload

    def _turn_away(self, link_key: int, receiver_index: int, sender: NodeId, payload: Any) -> None:
        """A delivery the fault schedule refuses: a downed link defers it
        (``on_down="defer"``) or drops it, a downed receiver loses it."""
        self._turned_away += 1
        if link_key in self._down_links and self.faults.on_down == "defer":
            self._deferred.setdefault(link_key, []).append((receiver_index, sender, payload))
            self.stats.deferred_messages += 1
        else:
            self.stats.dropped_messages += 1

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

        The loop pops, sets the clock and dispatches.  Its inner loop pops
        at most as many events as the queue held when it started, so it
        never finds the queue empty and needs no check per event; the outer
        loop refills the budget.  Every popped event counts toward
        ``max_events``, control events and turned-away deliveries too.

        Parameters
        ----------
        max_events:
            Upper bound on processed events (safety valve for protocols with
            unbounded chatter).
        until_decided:
            Nodes whose decisions end the run: it stops right after the
            event on which the last of them decided, or, when all of them
            decided before the loop (in ``on_start`` or an earlier run),
            after the first message handed to a node.  A decision counts
            when :meth:`Process.decide <repro.network.node.Process.decide>`
            reports it for that node id, so a Byzantine wrapper's inner
            process counts for its node.
        """
        queue = self._queue
        stats = self.stats
        try:
            self.start()
            if until_decided is not None:
                self._awaiting = set(until_decided) - self._decided
            handlers = self._handlers()
            heappop = heapq.heappop
            remaining = sys.maxsize if max_events is None else max_events
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
            self._awaiting = None
            n = self._n
            queued = sum(1 for event in queue if event[2] < n)
            stats.delivered_messages = stats.sent_messages - queued - self._turned_away
            stats.final_time = self._time
        return stats

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

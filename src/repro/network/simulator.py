"""Discrete-event simulator for asynchronous message-passing over a digraph.

The simulator realizes the paper's system model (Section 2):

* nodes communicate only along the directed edges of ``G``;
* links are reliable — every sent message is eventually delivered exactly
  once — but delays are arbitrary (controlled by a
  :class:`~repro.network.delays.DelayModel`) and links are not FIFO: the
  paper's protocols build FIFO order themselves;
* computation is event-driven: a process reacts to deliveries.

Runs are deterministic for a fixed seed, delay model and protocol, which the
test-suite relies on.  The simulator also exposes counters (events, messages,
per-link traffic) consumed by the experiment metrics.

Event representation
--------------------
A full grid delivers millions of events, so the event queue holds plain
tuples rather than event objects: messages are
``(deliver_time, sequence, _MESSAGE, link_key, receiver_index, sender, payload)``
and timers are ``(deliver_time, sequence, _TIMER, owner_index, tag)``.  Heap
ordering compares ``(deliver_time, sequence)`` — ``sequence`` is unique, so
the comparison never reaches the heterogeneous tail — which skips an object
construction and a rich-comparison call per event.  Node ids are
interned to dense integers at construction; per-link statistics are keyed
on one packed ``sender_index * n + receiver_index`` int instead of a tuple
of node ids.

Fault injection
---------------
An optional :class:`~repro.network.faults.FaultSchedule` compiles into the
same heap as ``(time, sequence, _CONTROL, action, subject)`` tuples: link
down/up and node crash/recover windows become control events that toggle
down-sets consulted on the send and delivery paths, and per-message loss,
retry/backoff and duplication draw from a private fault RNG that never
touches the delay RNG.  An **inactive** schedule (zero intensity) leaves
every hot path untouched — :meth:`Simulator.run` only takes the slower
fault-aware loop when the schedule can actually perturb the run (or when
the delay model tracks in-flight counts).  The normative in-flight-message
semantics live in the :mod:`repro.network.faults` module docstring.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import SchedulerError, SimulationError
from repro.graphs.digraph import DiGraph
from repro.network.delays import ConstantDelay, DelayModel, UniformDelay
from repro.network.faults import LINK_DOWN, LINK_UP, NODE_DOWN, FaultSchedule
from repro.network.node import Context, Process

NodeId = Hashable

#: Event-kind tags (index 2 of every queued tuple).
_MESSAGE = 0
_TIMER = 1
_CONTROL = 2

#: Control-event action codes (index 3 of ``_CONTROL`` tuples).
_ACT_LINK_DOWN = 0
_ACT_LINK_UP = 1
_ACT_NODE_DOWN = 2
_ACT_NODE_UP = 3

#: Hard ceiling on any single retry backoff (capped exponential growth).
_BACKOFF_CAP = 8.0


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
    per_link_messages: Dict[Tuple[NodeId, NodeId], int] = field(default_factory=dict)
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

    def link_count(self, sender: NodeId, receiver: NodeId) -> int:
        """Messages delivered over a particular directed link."""
        return self.per_link_messages.get((sender, receiver), 0)


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
        self._process_by_index: List[Optional[Process]] = [None] * self._n
        self._queue: List[tuple] = []
        self._sequence = 0
        self._time = 0.0
        self._started = False
        #: packed link key → delivered-message count (decoded lazily into
        #: ``stats.per_link_messages`` by :meth:`_flush_stats`).
        self._link_counts: Dict[int, int] = {}
        self.stats = SimulationStats()
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
        link_base = node_index[sender] * self._n
        uniform = self._uniform
        if uniform is None or self._track_inflight:
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
            receiver_index = node_index[receiver]
            sequence += 1
            heappush(
                queue,
                (
                    time + (low + span * random_draw()),
                    sequence,
                    _MESSAGE,
                    link_base + receiver_index,
                    receiver_index,
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
            self._queue,
            (time + latency, self._sequence, _MESSAGE, link_key, receiver_index, sender, payload),
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
            (self._time + delay, self._sequence, _TIMER, self._node_index[owner], tag),
        )

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
                heapq.heappush(self._queue, (time, self._sequence, _CONTROL, code, packed))

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

    def _admit_message(self, event: tuple) -> bool:
        """Delivery-time fault check; ``False`` when the message is not delivered."""
        link_key = event[3]
        stats = self.stats
        if link_key in self._down_links:
            if self.faults.on_down == "defer":
                self._deferred.setdefault(link_key, []).append((event[4], event[5], event[6]))
                stats.deferred_messages += 1
            else:
                stats.dropped_messages += 1
            return False
        if event[4] in self._down_nodes:
            stats.dropped_messages += 1
            return False
        return True

    def _flush_stats(self) -> None:
        """Decode the packed per-link counters into the public stats dict."""
        nodes = self._nodes
        n = self._n
        per_link = {}
        for link_key, count in self._link_counts.items():
            per_link[(nodes[link_key // n], nodes[link_key % n])] = count
        self.stats.per_link_messages = per_link

    def run(
        self,
        max_events: Optional[int] = None,
        stop_when: Optional[Any] = None,
    ) -> SimulationStats:
        """Run until quiescence or until a limit / stop predicate triggers.

        Parameters
        ----------
        max_events:
            Upper bound on delivered events (safety valve for protocols with
            unbounded chatter).
        stop_when:
            Optional zero-argument callable evaluated after every event; the
            run stops as soon as it returns ``True`` (e.g. "all nonfaulty
            processes decided").
        """
        self.start()
        if self._faults_active or self._track_inflight:
            # Fault checks and in-flight bookkeeping live in a separate loop
            # so fault-free sweeps keep the branch-free hot path below.
            return self._run_with_faults(max_events, stop_when)
        # This loop runs once per delivered event and is the single hottest
        # frame of every sweep, so it dispatches inline, with no call per event.
        queue = self._queue
        heappop = heapq.heappop
        stats = self.stats
        link_counts = self._link_counts
        process_by_index = self._process_by_index
        events = 0
        while queue:
            if max_events is not None and events >= max_events:
                stats.terminated_early = True
                break
            event = heappop(queue)
            self._time = event[0]
            if event[2] == _MESSAGE:
                stats.delivered_messages += 1
                link_key = event[3]
                link_counts[link_key] = link_counts.get(link_key, 0) + 1
                process = process_by_index[event[4]]
                if process is not None:
                    process.messages_received += 1
                    process.on_message(event[5], event[6])
            else:
                stats.timer_events += 1
                process = process_by_index[event[3]]
                if process is not None:
                    process.on_timer(event[4])
            events += 1
            if stop_when is not None and stop_when():
                break
        stats.final_time = self._time
        self._flush_stats()
        return stats

    def _run_with_faults(
        self,
        max_events: Optional[int],
        stop_when: Optional[Any],
    ) -> SimulationStats:
        """The fault-aware twin of :meth:`run`'s hot loop.

        Identical control flow plus: control events toggle the down-sets,
        messages pass :meth:`_admit_message` before delivery, timers of down
        nodes are suppressed, and in-flight counts are decremented for the
        congestion-delay probe.  Suppressed events count toward
        ``max_events`` (they were popped) but cannot flip ``stop_when`` —
        no process state changed — so the predicate is skipped for them.
        """
        queue = self._queue
        heappop = heapq.heappop
        stats = self.stats
        link_counts = self._link_counts
        process_by_index = self._process_by_index
        faults_active = self._faults_active
        track_inflight = self._track_inflight
        inflight = self._inflight
        down_nodes = self._down_nodes
        events = 0
        while queue:
            if max_events is not None and events >= max_events:
                stats.terminated_early = True
                break
            event = heappop(queue)
            self._time = event[0]
            kind = event[2]
            events += 1
            if kind == _MESSAGE:
                link_key = event[3]
                if track_inflight:
                    inflight[link_key] -= 1
                if faults_active and not self._admit_message(event):
                    continue
                stats.delivered_messages += 1
                link_counts[link_key] = link_counts.get(link_key, 0) + 1
                process = process_by_index[event[4]]
                if process is not None:
                    process.messages_received += 1
                    process.on_message(event[5], event[6])
            elif kind == _TIMER:
                if faults_active and event[3] in down_nodes:
                    stats.suppressed_timers += 1
                    continue
                stats.timer_events += 1
                process = process_by_index[event[3]]
                if process is not None:
                    process.on_timer(event[4])
            else:
                stats.fault_control_events += 1
                self._apply_control(event[3], event[4])
                continue
            if stop_when is not None and stop_when():
                break
        stats.final_time = self._time
        self._flush_stats()
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

"""Process abstraction run by the asynchronous simulator.

A :class:`Process` is one node of the paper's message-passing system: it is
started once, then reacts to message deliveries (and optional local timers).
The simulator hands each process a :class:`Context` restricted to the actions
the model allows — sending over existing outgoing edges, reading the local
clock, and scheduling local timers.  A process signals completion by setting
``output`` (via :meth:`Process.decide`), which the experiment runner collects;
``decide`` also reports the node's first decision through the context, which
is how the simulator stops a run once the honest nodes decided.
"""

from __future__ import annotations

from abc import ABC
from typing import Any, Callable, FrozenSet, Hashable, List, Optional, Sequence

from repro.exceptions import SimulationError

NodeId = Hashable


class Context:
    """Per-process handle onto the simulator.

    Instances are created by :class:`~repro.network.simulator.Simulator`; the
    send callback enforces the communication graph (a process can only send
    over its outgoing edges).
    """

    def __init__(
        self,
        node_id: NodeId,
        out_neighbors: FrozenSet[NodeId],
        in_neighbors: FrozenSet[NodeId],
        send: Callable[[NodeId, NodeId, Any], None],
        set_timer: Callable[[NodeId, float, Any], None],
        clock: Callable[[], float],
        send_many: Callable[[NodeId, Sequence[NodeId], Any], None],
        decided: Callable[[NodeId], None],
    ) -> None:
        self.node_id = node_id
        self.out_neighbors = out_neighbors
        self.in_neighbors = in_neighbors
        self._send = send
        self._send_many = send_many
        self._set_timer = set_timer
        self._clock = clock
        self._decided = decided

    @property
    def now(self) -> float:
        """Current simulation time (not observable by the algorithms' logic —
        only used for instrumentation, matching the asynchronous model)."""
        return self._clock()

    def send(self, receiver: NodeId, payload: Any) -> None:
        """Send ``payload`` over the edge to ``receiver``.

        Raises :class:`SimulationError` if the edge does not exist — the
        model only allows transmission along edges of ``G``.
        """
        if receiver not in self.out_neighbors:
            raise SimulationError(
                f"node {self.node_id!r} has no outgoing edge to {receiver!r}"
            )
        self._send(self.node_id, receiver, payload)

    def send_many(self, receivers: Sequence[NodeId], payload: Any) -> None:
        """Send ``payload`` to every node of ``receivers``, in order.

        Equivalent to one :meth:`send` per receiver — same checks, same
        message order — but a flood costs one call into the simulator.
        """
        if not self.out_neighbors.issuperset(receivers):
            missing = [receiver for receiver in receivers if receiver not in self.out_neighbors]
            raise SimulationError(
                f"node {self.node_id!r} has no outgoing edge to {missing[0]!r}"
            )
        self._send_many(self.node_id, receivers, payload)

    def broadcast(self, payload: Any) -> None:
        """Send ``payload`` to every outgoing neighbour (local broadcast)."""
        self._send_many(self.node_id, sorted(self.out_neighbors, key=repr), payload)

    def set_timer(self, delay: float, tag: Any = None) -> None:
        """Schedule a local timer; :meth:`Process.on_timer` fires after ``delay``."""
        if delay <= 0:
            raise SimulationError("timer delay must be positive")
        self._set_timer(self.node_id, delay, tag)


class Process(ABC):
    """Base class for every protocol participant.

    Subclasses override :meth:`on_start`, :meth:`on_message` and optionally
    :meth:`on_timer`.  ``self.context`` is available from ``on_start`` onwards.
    """

    def __init__(self, node_id: NodeId) -> None:
        self.node_id = node_id
        self.context: Optional[Context] = None
        self.output: Optional[Any] = None
        self.decided: bool = False

    # -- lifecycle -----------------------------------------------------
    def bind(self, context: Context) -> None:
        """Attach the simulator-provided context (called by the simulator)."""
        self.context = context

    def unbind(self) -> None:
        """Drop the context (called by :meth:`Simulator.unbind_processes`).

        The context's callbacks refer back to the simulator, which refers to
        the process: dropping it breaks that cycle, so a finished run is
        freed by reference counting.  Subclasses holding other simulator
        callbacks drop them too.
        """
        self.context = None

    def on_start(self) -> None:
        """Hook invoked once at simulation start."""

    def on_message(self, sender: NodeId, payload: Any) -> None:
        """Hook invoked for every delivered message."""

    def on_timer(self, tag: Any) -> None:
        """Hook invoked when a local timer set via the context expires."""

    # -- helpers -------------------------------------------------------
    def require_context(self) -> Context:
        """Context accessor that fails loudly when the process is unbound."""
        if self.context is None:
            raise SimulationError(f"process {self.node_id!r} is not bound to a simulator")
        return self.context

    def decide(self, value: Any) -> None:
        """Record the process's output value (keeps the first decision).

        The first decision is also reported through the context, when the
        process is bound: the simulator counts it toward the nodes a run
        waits for (:meth:`Simulator.run
        <repro.network.simulator.Simulator.run>`'s ``until_decided``).
        """
        if not self.decided:
            self.output = value
            self.decided = True
            if self.context is not None:
                self.context._decided(self.node_id)

    def send(self, receiver: NodeId, payload: Any) -> None:
        """Send ``payload`` over the edge to ``receiver``."""
        self.require_context().send(receiver, payload)

    def broadcast(self, payload: Any) -> None:
        """Send ``payload`` to every outgoing neighbour."""
        self.require_context().broadcast(payload)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} node={self.node_id!r} decided={self.decided}>"


class SilentProcess(Process):
    """A process that never sends anything — the crash-from-start behaviour
    used by executions ``e1``/``e2`` of the necessity construction."""

    def on_start(self) -> None:  # noqa: D102 - inherited behaviour is intentional
        return

    def on_message(self, sender: NodeId, payload: Any) -> None:  # noqa: D102
        return


class RecordingProcess(Process):
    """A passive process that records every delivery (used by tests)."""

    def __init__(self, node_id: NodeId) -> None:
        super().__init__(node_id)
        self.received: List = []

    def on_message(self, sender: NodeId, payload: Any) -> None:  # noqa: D102
        self.received.append((sender, payload))

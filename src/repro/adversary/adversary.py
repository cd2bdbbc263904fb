"""Turning honest processes into Byzantine ones.

The :class:`ByzantineProcess` wrapper runs the honest protocol internally but
routes every outgoing transmission through a
:class:`~repro.adversary.behaviors.ByzantineBehavior`, which may drop, alter
or duplicate it per destination.  A :class:`FaultPlan` bundles the faulty
node set with the behaviour assigned to each node and knows how to wrap a
collection of processes before they are handed to the simulator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, Hashable, Iterable, Mapping, Optional, Sequence

from repro.adversary.behaviors import ByzantineBehavior, CrashBehavior
from repro.exceptions import AdversaryError
from repro.network.node import Context, Process

NodeId = Hashable
BehaviorFactory = Callable[[NodeId], ByzantineBehavior]


class ByzantineProcess(Process):
    """An honest protocol instance whose outgoing traffic is adversarial.

    The wrapped process sees a context identical to the real one except that
    ``send`` passes through the behaviour (its decisions are reported for
    the node as they would be unwrapped), so the honest code runs unmodified
    (it genuinely "thinks" it is participating) while the network observes
    arbitrary misbehaviour.  This matches the strongest reading of the model:
    the adversary knows the protocol and may deviate from it arbitrarily.
    """

    def __init__(self, inner: Process, behavior: ByzantineBehavior, seed: Optional[int] = None) -> None:
        super().__init__(inner.node_id)
        self.inner = inner
        self.behavior = behavior
        self.rng = random.Random(seed)

    def bind(self, context: Context) -> None:
        super().bind(context)
        shadow = Context(
            node_id=context.node_id,
            out_neighbors=context.out_neighbors,
            in_neighbors=context.in_neighbors,
            send=self._adversarial_send,
            set_timer=context._set_timer,
            clock=context._clock,
            send_many=self._adversarial_send_many,
            decided=context._decided,
        )
        self.inner.bind(shadow)

    def unbind(self) -> None:
        """Drop the context, and the wrapped process's shadow context."""
        super().unbind()
        self.inner.unbind()

    def _adversarial_send(self, sender: NodeId, receiver: NodeId, payload: Any) -> None:
        self._adversarial_send_many(sender, (receiver,), payload)

    def _adversarial_send_many(
        self, sender: NodeId, receivers: Sequence[NodeId], payload: Any
    ) -> None:
        """The behaviour sees a flood one receiver at a time, in order, so its
        RNG draws match those of the same sends made singly."""
        on_send = self.behavior.on_send
        send = self.require_context().send
        rng = self.rng
        for receiver in receivers:
            for mutated in on_send(sender, receiver, payload, rng):
                send(receiver, mutated)

    def on_start(self) -> None:  # noqa: D102 - delegation documented in class docstring
        if self.behavior.processes_messages:
            self.inner.on_start()

    def on_message(self, sender: NodeId, payload: Any) -> None:  # noqa: D102
        if self.behavior.processes_messages:
            self.inner.on_message(sender, payload)

    def on_timer(self, tag: Any) -> None:  # noqa: D102
        if self.behavior.processes_messages:
            self.inner.on_timer(tag)

    def __repr__(self) -> str:
        return f"<ByzantineProcess node={self.node_id!r} behavior={self.behavior.describe()}>"


@dataclass
class FaultPlan:
    """Which nodes are faulty and how each of them misbehaves.

    Attributes
    ----------
    faulty_nodes:
        The set ``F`` of Byzantine nodes for this execution.
    behavior_factory:
        Callable mapping a faulty node id to its behaviour instance (a fresh
        behaviour per node, so stateful behaviours are not shared).
    seed:
        Base seed for the per-node adversarial RNGs.
    """

    faulty_nodes: FrozenSet[NodeId]
    behavior_factory: BehaviorFactory = field(default=lambda node: CrashBehavior())
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        self.faulty_nodes = frozenset(self.faulty_nodes)

    @property
    def num_faults(self) -> int:
        """Number of faulty nodes in the plan."""
        return len(self.faulty_nodes)

    def is_faulty(self, node: NodeId) -> bool:
        """``True`` when ``node`` is Byzantine under this plan."""
        return node in self.faulty_nodes

    def nonfaulty(self, all_nodes: Iterable[NodeId]) -> FrozenSet[NodeId]:
        """The complement of the faulty set within ``all_nodes``."""
        return frozenset(all_nodes) - self.faulty_nodes

    def validate(self, all_nodes: Iterable[NodeId], f: int) -> None:
        """Check the plan respects the fault bound and the node universe."""
        universe = frozenset(all_nodes)
        if not self.faulty_nodes <= universe:
            unknown = self.faulty_nodes - universe
            raise AdversaryError(f"faulty nodes {sorted(map(repr, unknown))} are not in the graph")
        if self.num_faults > f:
            raise AdversaryError(
                f"fault plan has {self.num_faults} faulty nodes but the bound is f={f}"
            )

    def apply(self, processes: Mapping[NodeId, Process]) -> Dict[NodeId, Process]:
        """Wrap the processes of faulty nodes; honest processes pass through."""
        wrapped: Dict[NodeId, Process] = {}
        for index, (node, process) in enumerate(sorted(processes.items(), key=lambda kv: repr(kv[0]))):
            if node in self.faulty_nodes:
                behavior = self.behavior_factory(node)
                node_seed = None if self.seed is None else self.seed + index
                wrapped[node] = ByzantineProcess(process, behavior, seed=node_seed)
            else:
                wrapped[node] = process
        return wrapped

    def describe(self) -> str:
        """Short description used in experiment reports."""
        if not self.faulty_nodes:
            return "no faults"
        sample_behavior = self.behavior_factory(next(iter(self.faulty_nodes)))
        return (
            f"{self.num_faults} faulty {sorted(map(repr, self.faulty_nodes))} "
            f"behaving as {sample_behavior.describe()}"
        )


def no_faults() -> FaultPlan:
    """A plan with no faulty nodes (the fault-free control run)."""
    return FaultPlan(faulty_nodes=frozenset())

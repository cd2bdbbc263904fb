"""Byzantine behaviours.

The paper's adversary controls up to ``f`` nodes which "may misbehave
arbitrarily" and may collaborate.  We model a faulty node as the honest
protocol wrapped by a :class:`ByzantineBehavior` that intercepts every
outgoing transmission and may drop, alter or multiply it — per destination,
which captures the classical equivocation attack (telling different stories
to different neighbours).  Crash faults (a strict subset of Byzantine faults,
as the necessity proof of Theorem 18 notes) are the behaviour that silently
drops everything.

Behaviours act on protocol payloads generically: any payload exposing a
``value`` attribute (all of this library's protocol messages do — see
:mod:`repro.algorithms.messages`) can have that value rewritten with
:func:`dataclasses.replace`; payloads without a value pass through the
"value" mutators untouched, so a single behaviour works against every
protocol in the library.
"""

from __future__ import annotations

import dataclasses
import random
from abc import ABC, abstractmethod
from typing import Any, Dict, Hashable, List, Optional, Sequence

from repro.algorithms.messages import RoundValueMessage, ValueMessage

NodeId = Hashable


def _replace_value(payload: Any, new_value: float) -> Any:
    """Return a copy of ``payload`` with its ``value`` field replaced.

    Payloads that are not dataclasses or carry no ``value`` field are
    returned unchanged (the behaviour then degrades to honest forwarding for
    that message type, which is within the adversary's power anyway).  The
    flooded message types are special-cased: ``dataclasses.replace`` pays a
    per-call field introspection that the hot behaviours (every send of a
    faulty node) should not, and they are built positionally, which costs
    about half of a keyword construction.
    """
    cls = payload.__class__
    if cls is ValueMessage:
        return ValueMessage(payload.round, new_value, payload.path)
    if cls is RoundValueMessage:
        return RoundValueMessage(payload.round, new_value, payload.origin)
    if dataclasses.is_dataclass(payload) and hasattr(payload, "value"):
        current = getattr(payload, "value")
        if isinstance(current, (int, float)):
            return dataclasses.replace(payload, value=new_value)
    return payload


class ByzantineBehavior(ABC):
    """Strategy deciding what a faulty node actually puts on each link."""

    #: Whether the wrapped honest protocol keeps processing incoming messages.
    #: Crash-style behaviours set this to ``False`` to save work; the messages
    #: are still delivered by the network (links are reliable).
    processes_messages: bool = True

    @abstractmethod
    def on_send(
        self, sender: NodeId, receiver: NodeId, payload: Any, rng: random.Random
    ) -> List[Any]:
        """Payloads actually transmitted when the honest logic wants to send
        ``payload`` to ``receiver`` (empty list = drop)."""

    def describe(self) -> str:
        """Short name used in experiment reports."""
        return type(self).__name__


class HonestBehavior(ByzantineBehavior):
    """Forward everything unchanged — a faulty node behaving correctly.

    Useful as a control in experiments (the adversary is allowed to do this).
    """

    def on_send(self, sender, receiver, payload, rng) -> List[Any]:
        return [payload]


class CrashBehavior(ByzantineBehavior):
    """Send nothing at all: the node has crashed from the very beginning.

    This is the fault used by executions ``e1``/``e2`` of Theorem 18.
    """

    processes_messages = False

    def on_send(self, sender, receiver, payload, rng) -> List[Any]:
        return []


class CrashAfterBehavior(ByzantineBehavior):
    """Behave honestly for the first ``honest_sends`` transmissions, then crash.

    Models mid-execution failures, which stress the event-driven round
    structure more than a crash-from-start.
    """

    def __init__(self, honest_sends: int) -> None:
        if honest_sends < 0:
            raise ValueError("honest_sends must be non-negative")
        self.honest_sends = honest_sends
        self._sent = 0

    def on_send(self, sender, receiver, payload, rng) -> List[Any]:
        if self._sent >= self.honest_sends:
            return []
        self._sent += 1
        return [payload]

    def describe(self) -> str:
        return f"crash-after-{self.honest_sends}"


class FixedValueBehavior(ByzantineBehavior):
    """Always report the same (typically extreme) value regardless of state.

    The classical attack against averaging protocols: try to drag every
    nonfaulty node's state towards ``value`` and violate validity.
    """

    def __init__(self, value: float) -> None:
        self.value = float(value)

    def on_send(self, sender, receiver, payload, rng) -> List[Any]:
        return [_replace_value(payload, self.value)]

    def describe(self) -> str:
        return f"fixed-value({self.value})"


class RandomValueBehavior(ByzantineBehavior):
    """Report independent uniform random values in ``[low, high]`` per message."""

    def __init__(self, low: float = -100.0, high: float = 100.0) -> None:
        if high < low:
            raise ValueError("high must be >= low")
        self.low = low
        self.high = high

    def on_send(self, sender, receiver, payload, rng) -> List[Any]:
        return [_replace_value(payload, rng.uniform(self.low, self.high))]

    def describe(self) -> str:
        return f"random-value[{self.low}, {self.high}]"


class EquivocateBehavior(ByzantineBehavior):
    """Split-brain: report a different value to different receivers.

    ``values_by_receiver`` pins specific lies per destination; receivers not
    listed get the honest payload shifted by ``default_offset``.  This is the
    attack that makes reliable-broadcast-style machinery (the paper's
    Maximal-Consistency condition) necessary.
    """

    def __init__(
        self,
        values_by_receiver: Optional[Dict[NodeId, float]] = None,
        default_offset: float = 0.0,
    ) -> None:
        self.values_by_receiver = dict(values_by_receiver or {})
        self.default_offset = default_offset

    def on_send(self, sender, receiver, payload, rng) -> List[Any]:
        if receiver in self.values_by_receiver:
            return [_replace_value(payload, self.values_by_receiver[receiver])]
        if self.default_offset and hasattr(payload, "value"):
            current = getattr(payload, "value")
            if isinstance(current, (int, float)):
                return [_replace_value(payload, current + self.default_offset)]
        return [payload]

    def describe(self) -> str:
        return f"equivocate({len(self.values_by_receiver)} pinned, offset={self.default_offset})"


class OffsetValueBehavior(ByzantineBehavior):
    """Add a constant bias to every reported value (a subtle, hard-to-spot lie)."""

    def __init__(self, offset: float) -> None:
        self.offset = float(offset)

    def on_send(self, sender, receiver, payload, rng) -> List[Any]:
        if hasattr(payload, "value") and isinstance(getattr(payload, "value"), (int, float)):
            return [_replace_value(payload, getattr(payload, "value") + self.offset)]
        return [payload]

    def describe(self) -> str:
        return f"offset({self.offset:+})"


class SelectiveSilenceBehavior(ByzantineBehavior):
    """Honest towards some receivers, silent towards the rest.

    Models asymmetric partitions created by a faulty relay — particularly
    nasty in directed graphs where the victims may have no other incoming
    route.
    """

    def __init__(self, silent_towards: Sequence[NodeId]) -> None:
        self.silent_towards = frozenset(silent_towards)

    def on_send(self, sender, receiver, payload, rng) -> List[Any]:
        if receiver in self.silent_towards:
            return []
        return [payload]

    def describe(self) -> str:
        return f"selective-silence({len(self.silent_towards)} victims)"


class CompleteTamperBehavior(ByzantineBehavior):
    """Tamper with the Byzantine-Witness ``COMPLETE`` announcements.

    Besides lying about its own state value (like :class:`FixedValueBehavior`),
    the node rewrites every value map it announces or relays inside a
    ``CompleteMessage``-like payload (any dataclass with a ``values`` field of
    ``(node, value)`` pairs), replacing the reported values with ``value``.
    This attacks the witness machinery itself rather than the flooded values:
    the Completeness condition (Algorithm 2) is what stops honest nodes from
    acting on such announcements, because the fabricated values are never
    confirmed through uncoverable path sets.
    """

    def __init__(self, value: float) -> None:
        self.value = float(value)

    def on_send(self, sender, receiver, payload, rng) -> List[Any]:
        mutated = _replace_value(payload, self.value)
        if dataclasses.is_dataclass(mutated) and hasattr(mutated, "values"):
            reported = getattr(mutated, "values")
            if isinstance(reported, tuple):
                forged = tuple((node, self.value) for node, _ in reported)
                mutated = dataclasses.replace(mutated, values=forged)
        return [mutated]

    def describe(self) -> str:
        return f"tamper-complete({self.value})"


class ReplayBehavior(ByzantineBehavior):
    """Duplicate every message ``copies`` times (a spam/flooding nuisance)."""

    def __init__(self, copies: int = 2) -> None:
        if copies < 1:
            raise ValueError("copies must be at least 1")
        self.copies = copies

    def on_send(self, sender, receiver, payload, rng) -> List[Any]:
        return [payload] * self.copies

    def describe(self) -> str:
        return f"replay(x{self.copies})"


#: Behaviours exercised by the convergence benchmark's behaviour sweep.
STANDARD_BEHAVIOR_FACTORIES = {
    "crash": lambda: CrashBehavior(),
    "fixed-high": lambda: FixedValueBehavior(1e6),
    "fixed-low": lambda: FixedValueBehavior(-1e6),
    "random": lambda: RandomValueBehavior(-1e3, 1e3),
    "equivocate": lambda: EquivocateBehavior(default_offset=50.0),
    "offset": lambda: OffsetValueBehavior(25.0),
    "tamper-complete": lambda: CompleteTamperBehavior(-500.0),
}


# ----------------------------------------------------------------------
# registry: behaviours addressable by name (optionally parametrized) from
# grid axes and scenario files, e.g. behavior="offset:2.5"
# ----------------------------------------------------------------------
def _sync_constant(value: float):
    """Synchronous-model equivalent of a fixed-value lie."""

    def report(node, round_index, receiver, honest_value) -> float:
        return value

    return report


def _sync_offset(offset: float):
    """Synchronous-model equivalent of a constant additive bias."""

    def report(node, round_index, receiver, honest_value) -> float:
        return honest_value + offset

    return report


def _register_behaviors() -> None:
    from repro.registry import BEHAVIORS

    def entry(name, factory, summary, params=(), min_params=0, sync=None):
        metadata = {"params": tuple(params), "min_params": min_params}
        if sync is not None:
            metadata["sync"] = sync
        BEHAVIORS.register(name, factory, summary=summary, metadata=metadata)

    entry(
        "honest",
        lambda: HonestBehavior(),
        "forward everything unchanged (control)",
        sync=lambda: None,  # None = the faulty nodes report honestly
    )
    entry("crash", lambda: CrashBehavior(), "send nothing at all (crash from the start)")
    entry(
        "crash-after",
        lambda honest_sends: CrashAfterBehavior(int(honest_sends)),
        "behave honestly for N transmissions, then crash",
        params=("honest_sends",),
        min_params=1,
    )
    entry(
        "fixed-high",
        lambda value=1e6: FixedValueBehavior(value),
        "always report an extreme high value",
        params=("value",),
        sync=lambda value=1e6: _sync_constant(value),
    )
    entry(
        "fixed-low",
        lambda value=-1e6: FixedValueBehavior(value),
        "always report an extreme low value",
        params=("value",),
        sync=lambda value=-1e6: _sync_constant(value),
    )
    entry(
        "fixed",
        lambda value: FixedValueBehavior(value),
        "always report the given value",
        params=("value",),
        min_params=1,
        sync=lambda value: _sync_constant(value),
    )
    entry(
        "random",
        lambda low=-1e3, high=1e3: RandomValueBehavior(low, high),
        "report uniform random values in [low, high]",
        params=("low", "high"),
    )
    entry(
        "equivocate",
        lambda offset=50.0: EquivocateBehavior(default_offset=offset),
        "tell different stories to different receivers",
        params=("offset",),
    )
    entry(
        "offset",
        lambda offset=25.0: OffsetValueBehavior(offset),
        "add a constant bias to every reported value",
        params=("offset",),
        sync=lambda offset=25.0: _sync_offset(offset),
    )
    entry(
        "tamper-complete",
        lambda value=-500.0: CompleteTamperBehavior(value),
        "forge the BW COMPLETE announcements' value maps",
        params=("value",),
    )
    entry(
        "replay",
        lambda copies=2: ReplayBehavior(int(copies)),
        "duplicate every message N times",
        params=("copies",),
    )


_register_behaviors()

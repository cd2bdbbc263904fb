"""Protocol message types.

All algorithm payloads are small frozen dataclasses so they can be stored in
sets, compared for equality (the FIFO-Receive-All condition compares message
*contents* across propagation paths) and safely mutated-by-copy by the
Byzantine behaviours (which rewrite the ``value`` field through
``dataclasses.replace``).

Two message families exist:

* :class:`ValueMessage` — the state value of a node propagated by
  RedundantFlood (Algorithm 4) along an explicit propagation path, matching
  the paper's ``(x, p)`` pairs.
* :class:`CompleteMessage` — the ``(M_c, COMPLETE(F))`` announcement that a
  node FIFO-floods once its Maximal-Consistency condition fires (Algorithm 1
  line 11).  Since the receivers only ever use the *consistent value map* of
  ``M_c`` (one value per initial node — Definition 8 guarantees uniqueness),
  the message carries that map rather than the raw path set, which keeps the
  payload compact without changing the algorithm's behaviour.

The simpler baseline algorithms use :class:`RoundValueMessage` (a value
tagged with a round, no path) and :class:`EchoMessage` (reliable-broadcast
echoes for the clique baseline).

A BW node relays most of the messages it receives, so :func:`value_relay`
and :func:`complete_relay` build the relay copies with one
``object.__setattr__`` per field, skipping the class call and the frozen
``__init__``'s per-field lookups.  The fields land where ``__init__`` puts
them, so the copy is an ordinary instance: equality, hashing, field reads,
``dataclasses.replace`` and pickling are unchanged.  (Writing ``__dict__``
instead builds faster, but it gives every copy a dict of its own, which
the cyclic collector tracks and which makes every later field read take
CPython 3.11's slow path.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Hashable, Tuple

NodeId = Hashable
Path = Tuple[NodeId, ...]


@dataclass(frozen=True)
class ValueMessage:
    """A state value flooded along an explicit propagation path.

    ``path`` is the propagation path *so far*: it terminates at the sender of
    the link-level transmission (the receiver appends itself before storing,
    exactly as the paper's ``p || v`` notation does).
    """

    round: int
    value: float
    path: Path

    @property
    def origin(self) -> NodeId:
        """``init(path)`` — the node whose state value this message claims to carry."""
        return self.path[0]


@dataclass(frozen=True)
class CompleteMessage:
    """A ``(M_c, COMPLETE(F))`` announcement, FIFO-flooded along simple paths.

    Attributes
    ----------
    round:
        Asynchronous round the announcement belongs to.
    origin:
        The node ``c`` whose Maximal-Consistency condition fired.
    fault_set:
        The suspected set ``F`` of the parallel thread that fired.
    values:
        The consistent value map of ``M_c|F`` as a sorted tuple of
        ``(initial node, value)`` pairs (kept as a tuple so the message stays
        hashable; see :meth:`value_map`).
    fifo_counter:
        The origin's FIFO counter (Appendix F) — shared across all of the
        origin's parallel threads and rounds.
    path:
        Propagation path so far (simple, terminating at the link-level sender).
    """

    round: int
    origin: NodeId
    fault_set: FrozenSet[NodeId]
    values: Tuple[Tuple[NodeId, float], ...]
    fifo_counter: int
    path: Path

    def value_map(self) -> dict:
        """The value map ``{initial node: value}`` carried by the announcement."""
        return dict(self.values)

    def content_key(self) -> Tuple:
        """Content identity used by FIFO-Receive-All equality comparisons.

        Two copies of the "same message" received over different propagation
        paths must agree on round, origin, suspected set, values and counter.
        """
        return (self.round, self.origin, self.fault_set, self.values, self.fifo_counter)


@dataclass(frozen=True)
class RoundValueMessage:
    """A bare ``(round, value)`` report used by the baseline algorithms."""

    round: int
    value: float
    origin: NodeId


@dataclass(frozen=True)
class EchoMessage:
    """Reliable-broadcast echo used by the clique (Abraham et al. style) baseline.

    ``origin`` is the node whose round-``round`` value is being echoed;
    ``value`` the echoed value; the echoing node is the link-level sender.
    """

    round: int
    origin: NodeId
    value: float


def sort_value_pairs(pairs) -> Tuple[Tuple[NodeId, float], ...]:
    """Canonical ordering of ``(node, value)`` pairs for hashable payloads."""
    return tuple(sorted(pairs, key=lambda item: repr(item[0])))


_new_instance = object.__new__
_set_field = object.__setattr__


def value_relay(round_index: int, value: float, path: Path) -> ValueMessage:
    """``ValueMessage(round_index, value, path)``, built field by field."""
    message = _new_instance(ValueMessage)
    _set_field(message, "round", round_index)
    _set_field(message, "value", value)
    _set_field(message, "path", path)
    return message


def complete_relay(
    round_index: int,
    origin: NodeId,
    fault_set: FrozenSet[NodeId],
    values: Tuple[Tuple[NodeId, float], ...],
    fifo_counter: int,
    path: Path,
) -> CompleteMessage:
    """``CompleteMessage(round_index, origin, fault_set, values, fifo_counter,
    path)``, built field by field."""
    message = _new_instance(CompleteMessage)
    _set_field(message, "round", round_index)
    _set_field(message, "origin", origin)
    _set_field(message, "fault_set", fault_set)
    _set_field(message, "values", values)
    _set_field(message, "fifo_counter", fifo_counter)
    _set_field(message, "path", path)
    return message

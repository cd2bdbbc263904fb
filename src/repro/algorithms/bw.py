"""The Byzantine-Witness algorithm (Algorithm 1) — the paper's contribution.

Each node runs a sequence of asynchronous rounds.  Inside round ``r`` a node

1. **RedundantFloods** its state value along every redundant path
   (Algorithm 4);
2. runs one *parallel thread* per candidate fault set ``F_v`` that waits for
   its **Maximal-Consistency** condition — the received values, after
   excluding paths through ``F_v``, are consistent and cover every redundant
   path of ``G_{V\\F_v}`` ending at the node (Algorithm 1 line 10);
3. when a thread fires it **FIFO-floods** a ``COMPLETE(F_v)`` announcement
   carrying the consistent value map (line 11);
4. the thread then waits for the **FIFO-Receive-All** condition — identical
   ``COMPLETE(F_v)`` announcements from every node of ``reach_v(F_v)`` over
   every simple path inside the reach set (line 12);
5. **Verify** additionally demands the **Completeness** condition
   (Algorithm 2) for every announcement received through the reach set; once
   it holds the node runs **Filter-and-Average** (Algorithm 3) exactly once
   for the round, obtains its next state value and moves on (lines 14-19).

After ``⌊log2(K/ε)⌋ + 1`` rounds the node outputs its state value
(Section 4.6).

The implementation is event-driven on top of
:class:`repro.network.simulator.Simulator`: every handler reacts to a single
message delivery, which mirrors the paper's "upon receipt" pseudo-code.  The
parallel threads are represented by per-fault-set trackers inside a
per-round state object rather than actual threads; the shared-variable
``nextround`` discipline of lines 15-19 becomes a plain per-round boolean
because handlers run to completion one at a time.

A delivery only does the work it can cause:

* **Receipt steps.**  A value receipt runs in one frame: validate the
  payload, store it (:meth:`MessageSet.add_encoded
  <repro.algorithms.messagesets.MessageSet.add_encoded>`, the one store
  call), count fullness for the threads the reverse index lists, relay with
  one batched send, and evaluate the round only when a thread just became
  full or one is past FIFO-Receive-All.  A COMPLETE receipt validates,
  advances the FIFO counter prefix, stores ``(values, counter, path mask)``
  under ``(origin, F, path id)``, relays once per ``(origin, counter,
  path)`` and follows one wake rule: it pops the current round's threads
  parked on its ``(origin, path id)`` and evaluates the current round
  exactly when one woke, whichever round the receipt belongs to (the FIFO
  counters are global per origin, so a later round's COMPLETE can fill the
  gap a current-round thread waits on).  A receipt that wakes nothing
  cannot move the round: it never grows ``M``, and the current round holds
  no thread that became full unannounced (the value receipt that filled a
  thread drains it), so all it adds — an announcement, a FIFO-received
  counter — is more announcements for Verify to check, and a Verify that
  failed still fails.
* **Parking index (FIFO-Receive-All).**  A thread's wait list is scanned
  from where the last scan stopped; when the scan stops at an entry — the
  COMPLETE expected from ``origin`` over ``path`` — the thread is parked
  under ``(origin, path id)``.  The entry becomes satisfiable only through a
  COMPLETE receipt from ``origin`` over ``path`` (the copy arrives, its
  FIFO counter prefix advances; the content comparison is fixed once
  stored), so such a receipt — of this round or, since the counters are
  global per origin, of any other — re-scans just the current round's
  threads parked on its key instead of every waiting thread.
* **Completeness memo (Verify).**  A Completeness verdict depends on the
  message set ``M`` and the announcement ``(F, values)`` alone — never on
  which witness sent it — and ``M`` only grows.  Verdicts are memoised per
  round under ``(F, values)``, so every honest witness repeating the same
  announcement shares one check.  Each check's failure is recorded with the
  ``len(M)`` it failed at: while ``M`` keeps that size the verdict stands,
  so only a value delivery that grows ``M`` re-runs a failed check.
* **Shared thread plans.**  A thread's ``(node, F)``-only state — fault
  mask, fullness target (:meth:`TopologyKnowledge.thread_plan`) and the
  flattened FIFO-Receive-All wait list
  (:meth:`TopologyKnowledge.fifo_wait_list`) — is derived once per
  knowledge instance and shared by every round and every cell using it; a
  round's tracker keeps only its counters and its scan position.
* **Shared path records.**  Both floods read the per-path record of
  :attr:`TopologyKnowledge.path_info` (policy verdict, member mask, path id,
  cached relay targets for values and for COMPLETE announcements), and every
  flood is one batched send (:meth:`repro.network.node.Context.send_many`).
  The path id is the path's number in :meth:`TopologyKnowledge.path_table`,
  which every round's message set shares: a value is stored under it, and
  Filter-and-Average sorts ids instead of path tuples.  The COMPLETE flood
  keys its bookkeeping on the same id — the FIFO counter prefix under
  ``(origin, id)``, a stored announcement under ``(origin, F, id)``, the
  relay rule under ``(origin, counter, id)`` — so a receipt hashes no path
  tuple after the record lookup.  A forged path past
  :data:`~repro.algorithms.topology.PATH_MEMO_LIMIT` has no shared id
  (``-1``): its round's message set numbers it, and the COMPLETE keys hold
  the path tuple itself, which never equals an id.
* **Announcements validated once.**  A COMPLETE's value map is checked
  (hashable ``(node, value)`` pairs) once per object: the objects that
  passed are kept by id, so an honest relay, which forwards the same tuple,
  is not checked again.  A map that fails is never kept.

Malformed payloads — a path that is not a sequence, an unhashable hop,
round, origin or fault set, a value that is not a finite number, a FIFO
counter that is not an int, a value map that is not hashable ``(node,
value)`` pairs — are ignored at receipt, as a silent link would be, before
they touch any state.  Finite values are also what keeps Filter-and-Average's
sort a total order.  A COMPLETE copy whose path, extended by the
receiver, is not simple is dropped the same way: the FIFO flood runs over
simple paths only (Appendix F), so no such copy is stored, numbered or
relayed.
"""

from __future__ import annotations

import sys
from typing import Any, Dict, FrozenSet, Hashable, List, Mapping, Optional, Set, Tuple

from repro.algorithms.base import ConsensusConfig
from repro.algorithms.completeness import completeness
from repro.algorithms.filter_average import filter_and_average
from repro.algorithms.messages import (
    CompleteMessage,
    ValueMessage,
    complete_relay,
    sort_value_pairs,
    value_relay,
)
from repro.algorithms.messagesets import MessageSet
from repro.algorithms.topology import PATH_MEMO_LIMIT, TopologyKnowledge
from repro.conditions.reach_conditions import check_three_reach
from repro.exceptions import InfeasibleTopologyError, ProtocolError
from repro.graphs.digraph import DiGraph
from repro.graphs.paths import is_redundant, is_simple
from repro.network.node import Context, Process

NodeId = Hashable
Path = Tuple[NodeId, ...]
FaultSet = FrozenSet[NodeId]
#: A path as the COMPLETE bookkeeping keys it: its shared id, or the path
#: tuple itself when it has none (see the module docstring).
PathKey = Any

#: Range of the values accepted at receipt: every finite float (NaN and
#: infinities fail the comparison, non-numbers raise on it).
_LOWEST = -sys.float_info.max
_HIGHEST = sys.float_info.max


class _ThreadTracker:
    """Incremental state of one parallel thread (one candidate fault set).

    Per-message work is reduced to *fullness counting*: the topology's
    reverse index names the threads each required path belongs to, so one
    counter increment per listed thread replaces a per-thread set-membership
    test.  Consistency of ``M|_{F_v}`` (Definition 8) is evaluated lazily —
    once, when the thread becomes full — from the message set's
    origin/value/mask index; it is sound to defer because a restriction that
    is inconsistent can never become consistent again (stored messages are
    immutable), so a full-but-inconsistent thread is permanently dead either
    way.
    """

    __slots__ = ("fault_set", "fault_mask", "required_count",
                 "received_required", "fifo_received_all", "scan_pos",
                 "reach_mask")

    def __init__(self, fault_set: FaultSet, fault_mask: int, required_count: int) -> None:
        self.fault_set = fault_set
        self.fault_mask = fault_mask
        self.required_count = required_count
        self.received_required = 0
        self.fifo_received_all = False
        #: resume position in the shared FIFO-Receive-All wait list
        #: (:meth:`TopologyKnowledge.fifo_wait_list`): every entry's
        #: satisfaction is monotone (messages are immutable once stored,
        #: counter prefixes only grow), so each evaluation resumes where the
        #: previous one stopped instead of rescanning.
        self.scan_pos = 0
        self.reach_mask: Optional[int] = None


class _RoundState:
    """Mutable per-round state of a BW node."""

    __slots__ = ("round_index", "message_set", "trackers", "ready_trackers",
                 "fifo_all_count", "parked", "woken",
                 "complete_messages", "relayed_complete_keys",
                 "completeness_passed", "completeness_failed", "advanced",
                 "started")

    def __init__(self, round_index: int, message_set: MessageSet) -> None:
        self.round_index = round_index
        self.message_set = message_set
        self.trackers: Dict[FaultSet, _ThreadTracker] = {}
        #: trackers that just became full, each queued once, on the receipt
        #: completing its required-path set (drained by
        #: ``_maybe_flood_completes``, so the per-message re-evaluation never
        #: scans quiescent trackers).
        self.ready_trackers: List[_ThreadTracker] = []
        #: threads past FIFO-Receive-All — gates Verify (line 14) so that
        #: quiescent phases cost O(1).
        self.fifo_all_count = 0
        #: FIFO-Receive-All parking index: ``(origin, path key)`` → threads
        #: whose wait-list scan stopped at that entry.  Only a COMPLETE
        #: received from ``origin`` over that path can satisfy it, so only
        #: that receipt moves them to ``woken``, the threads the evaluation
        #: it runs re-scans (a thread is in at most one of the two).
        self.parked: Dict[Tuple[NodeId, PathKey], List[_ThreadTracker]] = {}
        self.woken: List[_ThreadTracker] = []
        #: ``(origin, fault_set, path key)`` → ``(values, fifo_counter,
        #: member mask of path)`` of the first COMPLETE received that way.
        #: Two announcements stored under one origin and fault set are
        #: identical iff their values and counters are: the key fixes the
        #: origin and fault set, and the round state the round.
        self.complete_messages: Dict[Tuple[NodeId, FaultSet, PathKey], Tuple] = {}
        #: ``(origin, counter, path key)`` of every COMPLETE relayed.
        self.relayed_complete_keys: Set[Tuple[NodeId, int, PathKey]] = set()
        #: Completeness memo keyed by the announcement ``(fault_set,
        #: values)`` — not by its origin, which the condition never reads:
        #: checks that passed, and ``len(M)`` at each check's latest failure
        #: (the verdict is a function of ``M``, which only grows).
        self.completeness_passed: Set[Tuple[FaultSet, Tuple]] = set()
        self.completeness_failed: Dict[Tuple[FaultSet, Tuple], int] = {}
        self.advanced = False
        self.started = False


class BWProcess(Process):
    """One node of the Byzantine-Witness protocol.

    Parameters
    ----------
    node_id:
        The node's identity (must match a graph node).
    graph:
        The communication graph (used for topology knowledge; the actual
        sending is constrained by the simulator anyway).
    initial_value:
        The node's real-valued input ``x_v[0]``.
    config:
        Protocol parameters (``f``, ``ε``, input range, flooding policy).
    topology:
        Optional shared :class:`TopologyKnowledge`; computed on demand when
        omitted (sharing one instance across nodes avoids redundant
        precomputation).
    """

    def __init__(
        self,
        node_id: NodeId,
        graph: DiGraph,
        initial_value: float,
        config: ConsensusConfig,
        topology: Optional[TopologyKnowledge] = None,
    ) -> None:
        super().__init__(node_id)
        self.graph = graph
        self.config = config
        self.initial_value = config.validate_input(initial_value)
        self.topology = topology or TopologyKnowledge(graph, config.f, config.path_policy)
        if self.topology.path_policy != config.path_policy:
            # Honest path records take their policy verdict from the knowledge.
            raise ProtocolError(
                f"the topology knowledge floods {self.topology.path_policy!r} paths, "
                f"the config {config.path_policy!r} ones"
            )
        if config.strict_topology_check and not check_three_reach(graph, config.f).holds:
            raise InfeasibleTopologyError(
                f"graph {graph.name or '<unnamed>'} does not satisfy 3-reach for f={config.f}"
            )

        self.current_round = 0
        self.state_value = self.initial_value
        self.total_rounds = config.rounds_needed()
        #: state value at the beginning of each round (x_v[0], x_v[1], ...).
        self.value_history: List[float] = [self.initial_value]
        self._rounds: Dict[int, _RoundState] = {}
        self._fifo_counter = 0
        #: (origin, path key) → longest contiguous counter prefix received
        #: (the FIFO-Receive check of Appendix F in O(1) instead of
        #: O(counter)).
        self._fifo_prefix: Dict[Tuple[NodeId, PathKey], int] = {}
        #: (origin, path key) → counters received past a gap in the prefix;
        #: only out-of-order arrivals create an entry, and it is dropped
        #: once the gap fills.
        self._fifo_pending: Dict[Tuple[NodeId, PathKey], Set[int]] = {}
        #: id → COMPLETE value map that passed validation, held so that the
        #: id cannot be reused by another object.
        self._valid_values: Dict[int, Tuple] = {}
        #: experiment-wide path codec (graph nodes share the engine's bits).
        self._codec = self.topology.path_codec
        #: the shared per-path records (see :meth:`_path_record`).
        self._path_info = self.topology.path_info
        #: sorted ``(neighbour, neighbour-bit)`` pairs, built on first send.
        self._out_info: Optional[List[Tuple[NodeId, int]]] = None
        #: raw context batch send (bound by :meth:`bind`).  Flood targets
        #: are always out-neighbours, so the edge check of
        #: ``Context.send_many`` is redundant on this path; one call
        #: enqueues the whole flood.
        self._send_many: Optional[Any] = None
        #: distinct relay-target lists of this node (see :meth:`_shared_targets`).
        self._target_lists: Dict[Tuple[NodeId, ...], List[NodeId]] = {}
        #: this node's thread plan and reverse fullness index (bound on
        #: first round state; both shared through the topology knowledge).
        self._thread_plan: Optional[Tuple[Tuple[FaultSet, int, int], ...]] = None
        self._required_index: Optional[Dict[int, Tuple[FaultSet, ...]]] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        """Begin round 0, or decide immediately when no rounds are needed."""
        if self.total_rounds == 0:
            self.decide(self.state_value)
            return
        self._start_round(0)

    def bind(self, context: Context) -> None:
        """Attach the context and keep its raw batch send for the floods."""
        super().bind(context)
        self._send_many = context._send_many

    def unbind(self) -> None:
        """Detach from the simulator, dropping the cached send callback too."""
        super().unbind()
        self._send_many = None

    def on_message(self, sender: NodeId, payload: Any) -> None:
        """Dispatch on the two protocol message families."""
        # Exact-class checks first: every honest payload is one of the two
        # concrete types; isinstance only runs for exotic (subclassed)
        # payloads a Byzantine sender might construct.
        cls = payload.__class__
        if cls is ValueMessage:
            self._handle_value(sender, payload)
        elif cls is CompleteMessage:
            self._handle_complete(sender, payload)
        elif isinstance(payload, ValueMessage):
            self._handle_value(sender, payload)
        elif isinstance(payload, CompleteMessage):
            self._handle_complete(sender, payload)
        # Unknown payloads (e.g. garbage injected by a Byzantine sender) are ignored.

    # ------------------------------------------------------------------
    # round management
    # ------------------------------------------------------------------
    def _out_neighbors(self) -> List[Tuple[NodeId, int]]:
        """Sorted ``(neighbour, bit)`` pairs (cached; repr-sort once, not per send)."""
        info = self._out_info
        if info is None:
            context = self.require_context()
            codec = self._codec
            info = [
                (neighbor, 1 << codec.bit(neighbor))
                for neighbor in sorted(context.out_neighbors, key=repr)
            ]
            self._out_info = info
        return info

    def _round_state(self, round_index: int) -> _RoundState:
        state = self._rounds.get(round_index)
        if state is None:
            plan = self._thread_plan
            if plan is None:
                # The reverse index first: it builds the shared path table.
                topology = self.topology
                self._required_index = topology.required_index(self.node_id)
                plan = self._thread_plan = topology.thread_plan(self.node_id)
            message_set = MessageSet(codec=self._codec, table=self.topology.path_table())
            state = _RoundState(round_index, message_set)
            trackers = state.trackers
            for fault_set, fault_mask, required_count in plan:
                trackers[fault_set] = _ThreadTracker(fault_set, fault_mask, required_count)
            self._rounds[round_index] = state
        return state

    def _start_round(self, round_index: int) -> None:
        state = self._round_state(round_index)
        state.started = True
        # The node's own value enters its message history on the trivial path ⟨v⟩ ...
        trivial = (self.node_id,)
        record = self._path_record(trivial)
        if state.message_set.add_encoded(record[2], self.node_id, self.state_value, record[1]):
            # ... a path every thread requires (Definition 9), in plan order.
            for tracker in state.trackers.values():
                tracker.received_required += 1
                if tracker.received_required == tracker.required_count:
                    state.ready_trackers.append(tracker)
        # ... and is RedundantFlooded to every outgoing neighbour (Algorithm 4, code for s).
        message = ValueMessage(round_index, self.state_value, trivial)
        self._send_many(self.node_id, [neighbor for neighbor, _ in self._out_neighbors()], message)
        self._evaluate_state(state)

    def _advance(self, state: _RoundState, new_value: float) -> None:
        state.advanced = True
        self.state_value = new_value
        self.value_history.append(new_value)
        self.current_round = state.round_index + 1
        if self.current_round >= self.total_rounds:
            self.decide(self.state_value)
            return
        self._start_round(self.current_round)

    # ------------------------------------------------------------------
    # value messages (RedundantFlood)
    # ------------------------------------------------------------------
    def _path_policy_allows(self, path: Path) -> bool:
        if self.config.path_policy == "simple":
            return is_simple(path)
        return is_redundant(path)

    def _forward_targets_uncached(self, extended: Path, member: int) -> List[NodeId]:
        """Neighbours ``u`` (sorted) for which ``extended || u`` satisfies the
        flooding policy — the per-neighbour test of Algorithm 4's relay rule.
        Memoised per path in the shared path record (:meth:`_path_record`).

        ``extended`` already satisfies the policy (checked at receipt), which
        lets the appended-hop test run on its member mask ``member`` (from
        the path record) instead of re-scanning the whole path per
        neighbour:

        * *simple* policy: ``extended || u`` is simple iff ``u`` is not a
          member of ``extended`` — one AND against the member mask;
        * *redundant* policy: with ``a`` the longest simple prefix length and
          ``b`` the longest simple suffix start of ``extended``, appending
          ``u`` keeps redundancy iff the path was fully simple (any neighbour
          works: ``⟨…, ter, u⟩`` is a simple suffix because ``u ≠ ter``), or
          ``u`` is outside the suffix (the suffix start is unchanged), or the
          last occurrence ``k`` of ``u`` still leaves a split: ``k + 1 < a``.
        """
        out = self._out_neighbors()
        codec = self._codec
        if self.config.path_policy == "simple":
            return [neighbor for neighbor, bit in out if not member & bit]
        length = len(extended)
        seen: Set[NodeId] = set()
        prefix_length = 0
        for node in extended:
            if node in seen:
                break
            seen.add(node)
            prefix_length += 1
        if prefix_length == length:
            return [neighbor for neighbor, _ in out]
        suffix_mask = 0
        suffix_start = length
        seen = set()
        for index in range(length - 1, -1, -1):
            node = extended[index]
            if node in seen:
                break
            seen.add(node)
            suffix_mask |= 1 << codec.bit(node)
            suffix_start = index
        targets = []
        for neighbor, bit in out:
            if not suffix_mask & bit:
                # Suffix start is unchanged and the path was already
                # redundant, so the split at ``suffix_start`` survives.
                targets.append(neighbor)
                continue
            last = length - 1
            while extended[last] != neighbor:
                last -= 1
            if last + 1 < prefix_length:
                targets.append(neighbor)
        return targets

    def _shared_targets(self, targets: List[NodeId]) -> List[NodeId]:
        """The one list object standing for ``targets`` at this node: a
        node's relay-target lists take few distinct values, so the path
        records (kept by the sweep worker cache) share them instead of each
        holding a copy.  Shared lists are never mutated."""
        return self._target_lists.setdefault(tuple(targets), targets)

    def _path_record(self, path: Path) -> List:
        """``[policy verdict, member mask, path id, value relay targets, FIFO
        relay targets]`` — shared across processes, rounds, both floods and
        (via the sweep worker cache) cells.  An honest path (one the
        lexicographic range of :meth:`TopologyKnowledge.path_table` numbers)
        is a policy path of the graph, and its mask comes from the table's
        build (:attr:`TopologyKnowledge.path_masks`); any other path is
        tested and encoded here.  The id is ``-1`` past
        :data:`~repro.algorithms.topology.PATH_MEMO_LIMIT` (see
        :meth:`TopologyKnowledge.path_id`).

        Both relay-target slots are filled lazily on first relay (only the
        path's terminal node ever computes them)."""
        info = self._path_info
        record = info.get(path)
        if record is None:
            topology = self.topology
            table = topology.path_table()
            path_id = table.ids.get(path)
            if path_id is not None and path_id < table.ordered:
                record = [True, topology.path_masks[path_id], path_id, None, None]
            else:
                record = [
                    self._path_policy_allows(path),
                    self._codec.member_mask(path),
                    topology.path_id(path),
                    None,
                    None,
                ]
            if len(info) < PATH_MEMO_LIMIT:
                info[path] = record
        return record

    def _handle_value(self, sender: NodeId, message: ValueMessage) -> None:
        try:
            path = tuple(message.path)
            if not path or path[-1] != sender:
                return  # propagation-path forgery that misreports the link sender
            extended = path + (self.node_id,)
            record = self._path_info.get(extended)  # hashes every hop
            value = message.value
            if not _LOWEST <= value <= _HIGHEST:
                return
            round_index = message.round
            state = self._rounds.get(round_index)
        except TypeError:
            return  # malformed payload (see the module docstring)
        if record is None:
            record = self._path_record(extended)
        if not record[0]:
            return
        value = float(value)
        if state is None:
            state = self._round_state(round_index)
        path_id = record[2]
        if path_id >= 0:
            if not state.message_set.add_encoded(path_id, path[0], value, record[1]):
                return
            # Fullness (Definition 9): the reverse index lists exactly the
            # threads requiring this path.  A path is stored at most once,
            # so the counters are exact and a thread reaches its target on
            # one receipt only: it is queued for the Maximal-Consistency
            # drain then, and never twice.
            required_by = self._required_index.get(path_id)
            if required_by:
                trackers = state.trackers
                for fault_set in required_by:
                    tracker = trackers[fault_set]
                    tracker.received_required += 1
                    if tracker.received_required == tracker.required_count:
                        state.ready_trackers.append(tracker)
        elif not state.message_set.add(value, extended, record[1]):
            return
        # Relay rule of Algorithm 4: only the first message per propagation path
        # is forwarded — the stored paths of length >= 2 are exactly the
        # relayed ones — and only towards neighbours keeping the path redundant.
        targets = record[3]
        if targets is None:
            targets = self._shared_targets(self._forward_targets_uncached(extended, record[1]))
            record[3] = targets
        if targets:
            self._send_many(self.node_id, targets, value_relay(round_index, value, extended))
        # Maximal-Consistency keeps being monitored even for rounds this
        # node already finished: other nodes may still be waiting for this
        # node's COMPLETE announcements (Theorem 9 relies on every
        # nonfaulty node eventually flooding COMPLETE(F) for the actual
        # fault set, in every round).  For the current round the full
        # evaluation loop runs (its first step is exactly that flood).
        # A value delivery can only progress the round when a thread
        # just became full (ready_trackers) or a thread is already past
        # FIFO-Receive-All and waiting on Verify, whose Completeness
        # check reads the message set (fifo_all_count) — every other
        # section's inputs are untouched by value messages, so the
        # evaluation loop is skipped outright.
        if round_index == self.current_round:
            if state.ready_trackers or state.fifo_all_count:
                self._evaluate_state(state)
        elif state.ready_trackers:
            self._maybe_flood_completes(state)

    # ------------------------------------------------------------------
    # COMPLETE messages (FIFO flood)
    # ------------------------------------------------------------------
    def _next_fifo_counter(self) -> int:
        self._fifo_counter += 1
        return self._fifo_counter

    def _handle_complete(self, sender: NodeId, message: CompleteMessage) -> None:
        node_id = self.node_id
        try:
            path = tuple(message.path)
            if not path or path[-1] != sender:
                return
            extended = path + (node_id,)
            # Simple paths are policy paths under both flooding policies, so
            # the value flood has usually created this path's shared record.
            record = self._path_info.get(extended)  # hashes every hop
            round_index = message.round
            state = self._rounds.get(round_index)
            counter = message.fifo_counter
            if counter.__class__ is not int:
                return
            origin = message.origin
            hash(origin)
            fault_set = message.fault_set
            if fault_set.__class__ is not frozenset:
                fault_set = frozenset(fault_set)
            values = message.values
            valid_values = self._valid_values
            if valid_values.get(id(values)) is not values:
                # Verify reads the values as a map and memoises on them.
                hash(values)
                dict(values)
                valid_values[id(values)] = values
        except (TypeError, ValueError):
            return  # malformed payload (see the module docstring)
        # FIFO flooding uses simple paths only: a copy over any other path is
        # dropped before it is stored, numbered or relayed.  Every hop has
        # its own codec bit, so a path is simple iff its mask has one bit
        # per hop.
        if record is None:
            if not is_simple(extended):
                return
            record = self._path_record(extended)
        elif record[1].bit_count() != len(extended):
            return
        if state is None:
            state = self._round_state(round_index)
        path_key = record[2]
        if path_key < 0:
            path_key = extended
        fifo_key = (origin, path_key)
        self._note_fifo_counter(fifo_key, counter)

        state.complete_messages.setdefault(
            (origin, fault_set, path_key), (values, counter, record[1])
        )

        relayed = state.relayed_complete_keys
        size = len(relayed)
        relayed.add((origin, counter, path_key))
        if len(relayed) != size:
            targets = record[4]
            if targets is None:
                mask = record[1]
                targets = self._shared_targets(
                    [neighbor for neighbor, bit in self._out_neighbors() if not mask & bit]
                )
                record[4] = targets
            if targets:
                self._send_many(
                    node_id,
                    targets,
                    complete_relay(
                        round_index, origin, message.fault_set, values, counter, extended
                    ),
                )

        # This receipt is the only event that can satisfy the FIFO-Receive-All
        # entry ``fifo_key`` (its message, its counter prefix), whichever
        # round it belongs to.  The one wake rule (module docstring): the
        # current round is evaluated exactly when the receipt wakes one of
        # its parked threads.
        current = self._rounds.get(self.current_round)
        if current is not None and current.parked:
            waiting = current.parked.pop(fifo_key, None)
            if waiting is not None:
                current.woken.extend(waiting)
                self._evaluate_state(current)

    def _note_fifo_counter(self, fifo_key: Tuple[NodeId, PathKey], counter: int) -> None:
        """Record a counter received from ``origin`` over a path (the
        ``fifo_key``) and advance that pair's contiguous prefix.  A counter
        past a gap waits in the pair's pending set until the gap fills."""
        prefix = self._fifo_prefix.get(fifo_key, 0)
        if counter == prefix + 1:
            pending_sets = self._fifo_pending
            if pending_sets:
                pending = pending_sets.get(fifo_key)
                if pending is not None:
                    while counter + 1 in pending:
                        counter += 1
                        pending.remove(counter)
                    if not pending:
                        del pending_sets[fifo_key]
            self._fifo_prefix[fifo_key] = counter
        elif counter > prefix + 1:
            pending = self._fifo_pending.get(fifo_key)
            if pending is None:
                pending = self._fifo_pending[fifo_key] = set()
            pending.add(counter)

    def _fifo_received(self, origin: NodeId, path_key: PathKey, counter: int) -> bool:
        """FIFO-Receive check of Appendix F: all earlier counters from the same
        origin arrived on the same propagation path (keyed by its
        ``path_key``).

        O(1): counters ``1..k`` were all received iff the contiguous prefix
        maintained by :meth:`_note_fifo_counter` reaches ``k``.
        """
        if origin == self.node_id:
            return True
        return self._fifo_prefix.get((origin, path_key), 0) >= counter - 1

    def _fifo_flood_complete(
        self, round_index: int, fault_set: FaultSet, values: Mapping[NodeId, float]
    ) -> None:
        counter = self._next_fifo_counter()
        payload_values = sort_value_pairs(values.items())
        own_path = (self.node_id,)
        message = CompleteMessage(
            round_index, self.node_id, fault_set, payload_values, counter, own_path
        )
        state = self._round_state(round_index)
        # The node trivially "receives" its own announcement on the path ⟨v⟩
        # (an honest path, so it has a shared id).
        own_id = self._path_record(own_path)[2]
        state.complete_messages[(self.node_id, fault_set, own_id)] = (
            payload_values,
            counter,
            1 << self._codec.bit(self.node_id),
        )
        self._send_many(self.node_id, [neighbor for neighbor, _ in self._out_neighbors()], message)

    # ------------------------------------------------------------------
    # condition evaluation (lines 10-19 of Algorithm 1)
    # ------------------------------------------------------------------
    def _maybe_flood_completes(self, state: _RoundState) -> None:
        """Maximal-Consistency (line 10) → FIFO-flood COMPLETE (line 11).

        Evaluated for *any* round the node has started (including rounds it
        already finished), because other nodes' FIFO-Receive-All conditions
        wait for this node's announcements.  Only trackers that just became
        full (queued once by the receipt that made them so) are examined.
        """
        if not state.started:
            return
        while state.ready_trackers:
            tracker = state.ready_trackers.pop(0)
            # Lazy Definition 8 check: derive the value map of ``M|_{F_v}``
            # from the message set's origin/value/mask index.  ``None`` means
            # the restriction is inconsistent — permanently, since stored
            # messages are immutable — so the thread never fires.
            value_map = self._restricted_value_map(state.message_set, tracker.fault_mask)
            if value_map is None:
                continue
            state.woken.append(tracker)  # due its first FIFO-Receive-All scan
            self._fifo_flood_complete(state.round_index, tracker.fault_set, value_map)

    def _restricted_value_map(
        self, message_set: MessageSet, fault_mask: int
    ) -> Optional[Mapping[NodeId, float]]:
        """Value map of ``M|_F`` (Definition 7) — or ``None`` when inconsistent.

        For every origin, scan its values for one with at least one
        propagation path avoiding ``F``; two such values violate Definition 8.
        """
        result: Dict[NodeId, float] = {}
        for origin, by_value in message_set.value_masks_by_origin().items():
            found: Optional[float] = None
            for value, masks in by_value.items():
                for mask in masks:
                    if not mask & fault_mask:
                        break
                else:
                    continue
                if found is None:
                    found = value
                else:
                    return None
            if found is not None:
                result[origin] = found
        return result

    def _evaluate_state(self, state: _RoundState) -> None:
        """One pass over lines 10-14 for the current round.

        A single pass reaches the fixpoint: announcing COMPLETE (line 11)
        queues the thread for its first FIFO-Receive-All scan below, a scan
        that stops parks the thread until a COMPLETE receipt can move it,
        and no step of the pass changes what Verify reads (``M`` and the
        stored announcements), so repeating it would decide nothing new.
        """
        if state.advanced or not state.started:
            return

        # Maximal-Consistency (line 10) → FIFO-flood COMPLETE (line 11).
        if state.ready_trackers:
            self._maybe_flood_completes(state)

        # FIFO-Receive-All (line 12) for the threads that can have moved.
        if state.woken:
            woken = state.woken
            state.woken = []
            for tracker in woken:
                if self._fifo_receive_all_satisfied(state, tracker):
                    tracker.fifo_received_all = True
                    state.fifo_all_count += 1

        # Verify (line 14 / function at line 20) → Filter-and-Average.
        if state.fifo_all_count:
            for fault_set, tracker in state.trackers.items():
                if tracker.fifo_received_all and self._verify(state, fault_set, tracker):
                    result = filter_and_average(state.message_set, self.config.f, self.node_id)
                    self._advance(state, result.new_value)
                    return

    def _fifo_receive_all_satisfied(self, state: _RoundState, tracker: _ThreadTracker) -> bool:
        """Line 12: identical, FIFO-received ``COMPLETE(F_v)`` announcements from
        every node of ``reach_v(F_v)`` over every simple path inside the reach set.

        Resumes at the entry where the previous scan stopped; on stopping,
        parks the thread under that entry's ``(origin, path id)``."""
        entries = self.topology.fifo_wait_list(self.node_id, tracker.fault_set)
        complete_messages = state.complete_messages
        fifo_prefix = self._fifo_prefix
        pos = tracker.scan_pos
        total = len(entries)
        while pos < total:
            key, fifo_key, first_key = entries[pos]
            stored = complete_messages.get(key)
            if (
                stored is None
                or fifo_prefix.get(fifo_key, 0) < stored[1] - 1
                or (
                    first_key is not None
                    and (
                        stored[1] != complete_messages[first_key][1]
                        or stored[0] != complete_messages[first_key][0]
                    )
                )
            ):
                state.parked.setdefault(fifo_key, []).append(tracker)
                break
            pos += 1
        tracker.scan_pos = pos
        return pos == total

    def _verify(
        self, state: _RoundState, fault_set: FaultSet, tracker: _ThreadTracker
    ) -> bool:
        """Function Verify (lines 20-26): Completeness for every announcement
        FIFO-received through a simple path inside ``reach_v(F_v)``.

        Path-containment tests run on the shared bitmask engine: the reach
        set is a memoised mask (one cache per experiment run, shared across
        rounds and fault-set pairs, re-bound per thread) and each
        path-in-reach check is a single word operation instead of a set
        comparison.

        The Completeness memo is exact because a verdict depends on ``M``
        and the announcement ``(F, values)`` alone — not on which witness
        sent it — and ``M`` only grows: a verdict is computed once per
        distinct announcement, and a check that failed at the current
        ``len(M)`` still fails, so it is not re-run until a value delivery
        grows ``M``.
        """
        reach_mask = tracker.reach_mask
        if reach_mask is None:
            reach_mask = self.topology.reach_mask(self.node_id, fault_set)
            tracker.reach_mask = reach_mask
        outside_reach = ~reach_mask
        size = len(state.message_set)
        passed = state.completeness_passed
        failed = state.completeness_failed
        for (origin, announced_set, path_key), stored in state.complete_messages.items():
            # Forged hops intern beyond the graph's bits, so they always test
            # as outside reach.
            values, counter, path_mask = stored
            if path_mask & outside_reach:
                continue
            if not self._fifo_received(origin, path_key, counter):
                continue
            cache_key = (announced_set, values)
            if cache_key in passed:
                continue
            if failed.get(cache_key) != size and completeness(
                state.message_set,
                dict(values),
                announced_set,
                self.topology,
                self.node_id,
            ):
                passed.add(cache_key)
                continue
            failed[cache_key] = size
            return False
        return True

    # ------------------------------------------------------------------
    # introspection used by the experiment harness
    # ------------------------------------------------------------------
    @property
    def rounds_completed(self) -> int:
        """Number of value-update rounds completed so far."""
        return len(self.value_history) - 1

    def __repr__(self) -> str:
        return (
            f"<BWProcess node={self.node_id!r} round={self.current_round}/"
            f"{self.total_rounds} value={self.state_value:.6g} decided={self.decided}>"
        )


def create_bw_processes(
    graph: DiGraph,
    inputs: Mapping[NodeId, float],
    config: ConsensusConfig,
    topology: Optional[TopologyKnowledge] = None,
) -> Dict[NodeId, BWProcess]:
    """Instantiate one :class:`BWProcess` per graph node with shared topology.

    ``inputs`` must provide a value for every node of the graph.
    """
    missing = set(graph.nodes) - set(inputs)
    if missing:
        raise ProtocolError(f"missing inputs for nodes {sorted(map(repr, missing))}")
    shared = topology or TopologyKnowledge(graph, config.f, config.path_policy)
    return {
        node: BWProcess(node, graph, inputs[node], config, topology=shared)
        for node in graph.nodes
    }

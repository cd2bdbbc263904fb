"""Literal, definition-by-definition test oracles.

Straight transcriptions of the paper's definitions with no enumeration
shortcuts: every quantifier of the definition text becomes one loop.

* Definition 3 (1-, 2- and 3-reach), over the set-level
  :func:`~repro.graphs.reach.reach_set`;
* the k-reach sweep with the ordered, witness-keeping pass on every shared
  set (:func:`ordered_reach_sweep`), which pins the checkers' violation
  witnesses and ``checks_performed`` on graphs too large for the literal
  loops;
* Definition 14 (``A →^x B``) and Definitions 16–18 (CCS, CCA, BCS), by
  enumerating every 3-way partition (``3^n`` of them);
* the COMPLETE receipt bookkeeping of one BW node (Algorithm 1 lines 11-12
  and Appendix F), keyed by path tuples (:class:`FifoFloodOracle`);
* FIFO links, which Appendix F builds from counters over non-FIFO ones:
  each link its own constant delay (:func:`fifo_link_delays`);
* Algorithm 3 (Filter-and-Average) over the fully sorted entry list, one
  f-cover search per prefix (:func:`literal_filter_and_average`);
* one whole BW node — Algorithm 1 with RedundantFlood (Algorithm 4),
  Completeness (Algorithm 2) and the FIFO flood of Appendix F — keyed by
  tuples and re-evaluating every thread on every receipt
  (:class:`LiteralBW`);
* the topology knowledge of every thread, each ``(node, F)`` object
  enumerated again in its own subgraph (:class:`SubgraphTopology`).

They are exponentially slower than the checkers in
:mod:`repro.conditions.reach_conditions` and
:mod:`repro.conditions.partition_conditions`, and exist only so the tests
can validate those checkers against the paper's text on small graphs.
Inputs are validated by the checkers' shared
:func:`~repro.conditions.reach_conditions.validate_query`.
"""

from __future__ import annotations

import random
import sys
from typing import Any, Dict, FrozenSet, Hashable, Iterable, List, Optional, Set, Tuple

from repro.algorithms.base import ConsensusConfig
from repro.algorithms.messages import CompleteMessage, ValueMessage, sort_value_pairs
from repro.algorithms.messagesets import PathTable
from repro.conditions.certificates import ConditionReport, PartitionViolation, ReachViolation
from repro.conditions.reach_conditions import iter_subsets, validate_query
from repro.graphs.bitset import BitsetIndex, PathCodec
from repro.graphs.digraph import DiGraph, Node
from repro.graphs.paths import (
    enumerate_redundant_paths_to,
    enumerate_simple_paths_to,
    has_f_cover,
    is_fully_contained,
    is_redundant,
    is_simple,
)
from repro.graphs.reach import reach_set, source_component
from repro.network.delays import ConstantDelay, PerLinkDelay
from repro.network.node import Process


# ----------------------------------------------------------------------
# Definition 3: the reach conditions
# ----------------------------------------------------------------------
def _reach_report(
    condition: str,
    f: int,
    checks: int,
    u: Node,
    v: Node,
    shared: FrozenSet[Node],
    fu: FrozenSet[Node],
    fv: FrozenSet[Node],
    reach_u: FrozenSet[Node],
    reach_v: FrozenSet[Node],
) -> ConditionReport:
    return ConditionReport(
        condition=condition,
        f=f,
        holds=False,
        reach_violation=ReachViolation(
            u=u,
            v=v,
            shared_fault_set=shared,
            fault_set_u=fu,
            fault_set_v=fv,
            reach_u=reach_u,
            reach_v=reach_v,
        ),
        checks_performed=checks,
    )


def check_one_reach_naive(graph: DiGraph, f: int) -> ConditionReport:
    """Literal 1-reach check: every ``F`` with ``|F| ≤ f``, every pair outside ``F``."""
    f, _ = validate_query(graph, f)
    nodes = graph.nodes
    checks = 0
    for shared in iter_subsets(nodes, f):
        outside = [node for node in nodes if node not in shared]
        reaches = {node: reach_set(graph, node, shared) for node in outside}
        for i, u in enumerate(outside):
            for v in outside[i + 1:]:
                checks += 1
                if not (reaches[u] & reaches[v]):
                    return _reach_report(
                        "1-reach", f, checks, u, v, shared, frozenset(), frozenset(),
                        reaches[u], reaches[v],
                    )
    return ConditionReport(condition="1-reach", f=f, holds=True, checks_performed=checks)


def check_two_reach_naive(graph: DiGraph, f: int) -> ConditionReport:
    """Literal 2-reach check: every pair ``u, v`` and every ``Fu ∌ u``, ``Fv ∌ v``."""
    f, _ = validate_query(graph, f)
    nodes = graph.nodes
    checks = 0
    for i, u in enumerate(nodes):
        for v in nodes[i + 1:]:
            for fu in iter_subsets([x for x in nodes if x != u], f):
                reach_u = reach_set(graph, u, fu)
                for fv in iter_subsets([x for x in nodes if x != v], f):
                    checks += 1
                    reach_v = reach_set(graph, v, fv)
                    if not (reach_u & reach_v):
                        return _reach_report(
                            "2-reach", f, checks, u, v, frozenset(), fu, fv,
                            reach_u, reach_v,
                        )
    return ConditionReport(condition="2-reach", f=f, holds=True, checks_performed=checks)


def check_three_reach_naive(graph: DiGraph, f: int) -> ConditionReport:
    """Literal 3-reach check: every ``F``, ``Fu``, ``Fv`` and pair ``u, v``
    with ``u ∉ F ∪ Fu`` and ``v ∉ F ∪ Fv``."""
    f, _ = validate_query(graph, f)
    nodes = graph.nodes
    checks = 0
    for shared in iter_subsets(nodes, f):
        for i, u in enumerate(nodes):
            if u in shared:
                continue
            for v in nodes[i + 1:]:
                if v in shared:
                    continue
                for fu in iter_subsets([x for x in nodes if x != u], f):
                    reach_u = reach_set(graph, u, shared | fu)
                    for fv in iter_subsets([x for x in nodes if x != v], f):
                        checks += 1
                        reach_v = reach_set(graph, v, shared | fv)
                        if not (reach_u & reach_v):
                            return _reach_report(
                                "3-reach", f, checks, u, v, shared, fu, fv,
                                reach_u, reach_v,
                            )
    return ConditionReport(condition="3-reach", f=f, holds=True, checks_performed=checks)


def ordered_reach_sweep(graph: DiGraph, f: int, k: int) -> ConditionReport:
    """k-reach (``k ≥ 2``) swept with the ordered pass on *every* shared set.

    Shared sets ``F`` (``|F| ≤ f`` for odd ``k``, only ``∅`` for even ``k``)
    run small first.  For each, the entries ``(P, i)`` — private set
    ``|P| ≤ ⌊k/2⌋·f`` avoiding ``F``, node ``i ∉ F ∪ P`` — are listed with
    ``P`` outer and ``i`` inner, and each distinct reach mask is kept once
    with its first ``(i, P)``, except the mask of every live node.  A nested
    loop over those masks counts every pair test and stops at the first
    disjoint pair.  The checker reaches the same reports with an unordered
    existence pass per shared set; this oracle never takes that shortcut.
    """
    f, k = validate_query(graph, f, k)
    index = BitsetIndex(graph)
    index.set_backend("python")
    n = index.n
    checks = 0
    for shared in iter_subsets(range(n), f if k % 2 else 0):
        base = sum(1 << i for i in shared)
        first: Dict[int, Tuple[int, int]] = {}
        for private in iter_subsets([i for i in range(n) if i not in shared], (k // 2) * f):
            private_mask = sum(1 << i for i in private)
            for i, mask in enumerate(index.reach_masks(base | private_mask)):
                if mask and mask != index.full_mask & ~base:
                    first.setdefault(mask, (i, private_mask))
        masks = list(first)
        for a, mask_a in enumerate(masks):
            for mask_b in masks[a + 1:]:
                checks += 1
                if not mask_a & mask_b:
                    (u, fu), (v, fv) = first[mask_a], first[mask_b]
                    return _reach_report(
                        f"{k}-reach", f, checks, index.nodes[u], index.nodes[v],
                        index.nodes_of(base), index.nodes_of(fu), index.nodes_of(fv),
                        index.nodes_of(mask_a), index.nodes_of(mask_b),
                    )
    return ConditionReport(condition=f"{k}-reach", f=f, holds=True, checks_performed=checks)


# ----------------------------------------------------------------------
# Definitions 14 and 16-18: the partition conditions
# ----------------------------------------------------------------------
def has_x_incoming(
    graph: DiGraph, source_set: Iterable[Node], target_set: Iterable[Node], x: int
) -> bool:
    """``A →^x B`` (Definition 14) — ``B`` has at least ``x`` distinct
    incoming neighbours in ``A``.

    Incoming neighbours of ``B`` are nodes outside ``B`` with an edge into
    ``B``; only those belonging to ``A`` are counted.
    """
    incoming = graph.in_neighborhood_of_set(set(target_set))
    return len(incoming & set(source_set)) >= x


def check_cca_literal(graph: DiGraph, f: int) -> ConditionReport:
    """Literal Definition 17 check by enumerating 3-way partitions."""
    f, _ = validate_query(graph, f)
    nodes = graph.nodes
    checks = 0
    for assignment in range(3 ** len(nodes)):
        left, center, right = [], [], []
        value = assignment
        for node in nodes:
            bucket = value % 3
            value //= 3
            (left, center, right)[bucket].append(node)
        if not left or not right:
            continue
        checks += 1
        if has_x_incoming(graph, set(left) | set(center), right, f + 1):
            continue
        if has_x_incoming(graph, set(right) | set(center), left, f + 1):
            continue
        violation = PartitionViolation(
            fault_set=frozenset(),
            left=frozenset(left),
            center=frozenset(center),
            right=frozenset(right),
            left_incoming=len(graph.in_neighborhood_of_set(left) & (set(right) | set(center))),
            right_incoming=len(graph.in_neighborhood_of_set(right) & (set(left) | set(center))),
        )
        return ConditionReport(
            condition="CCA", f=f, holds=False, partition_violation=violation, checks_performed=checks
        )
    return ConditionReport(condition="CCA", f=f, holds=True, checks_performed=checks)


def _cca_literal_after_faults(
    graph: DiGraph, f: int, threshold: int, condition: str
) -> ConditionReport:
    """For every ``|F| ≤ f``: the literal CCA check with ``threshold`` on
    ``G_{V \\ F}`` (CCS uses threshold 0, BCS uses ``f``)."""
    f, _ = validate_query(graph, f)
    total_checks = 0
    for fault in iter_subsets(graph.nodes, f):
        induced = graph.exclude_nodes(fault)
        if induced.num_nodes == 0:
            continue
        inner = check_cca_literal(induced, threshold)
        total_checks += inner.checks_performed
        if not inner.holds:
            found = inner.partition_violation
            violation = PartitionViolation(
                fault_set=fault,
                left=found.left,
                center=found.center,
                right=found.right,
                left_incoming=found.left_incoming,
                right_incoming=found.right_incoming,
            )
            return ConditionReport(
                condition=condition,
                f=f,
                holds=False,
                partition_violation=violation,
                checks_performed=total_checks,
            )
    return ConditionReport(condition=condition, f=f, holds=True, checks_performed=total_checks)


def check_bcs_literal(graph: DiGraph, f: int) -> ConditionReport:
    """Literal Definition 18 check: for every ``|F| ≤ f``, CCA holds on
    ``G_{V \\ F}``."""
    return _cca_literal_after_faults(graph, f, f, "BCS")


def check_ccs_literal(graph: DiGraph, f: int) -> ConditionReport:
    """Literal Definition 16 check: for every ``|F| ≤ f`` and every 3-way
    partition of ``V \\ F``, one side receives at least one incoming
    neighbour from the other side plus the center."""
    return _cca_literal_after_faults(graph, f, 0, "CCS")


# ----------------------------------------------------------------------
# Algorithm 1 lines 11-12 and Appendix F: the FIFO flood at one node
# ----------------------------------------------------------------------
def fifo_link_delays(graph: DiGraph, seed: int) -> PerLinkDelay:
    """Each link its own constant delay: every link delivers in send order
    (ties break by send sequence), while links stay asynchronous to each
    other."""
    rng = random.Random(seed)
    return PerLinkDelay(
        ConstantDelay(1.0), {edge: ConstantDelay(rng.uniform(0.5, 2.0)) for edge in graph.edges}
    )


def simple_paths_inside(graph: DiGraph, members: FrozenSet[Node], source: Node, target: Node):
    """Every simple ``(source, target)``-path whose nodes all lie in ``members``."""
    found = []

    def extend(path):
        if path[-1] == target:
            found.append(path)
            return
        for successor in graph.successors(path[-1]):
            if successor in members and successor not in path:
                extend(path + (successor,))

    if source in members and target in members:
        extend((source,))
    return found


class FifoFloodOracle:
    """What one BW node ``node`` records about well-formed COMPLETE
    announcements, keyed by path tuples.

    Every counter received from ``origin`` over ``path`` is kept, and every
    question re-reads all of them: FIFO-Receive (Appendix F) asks whether
    counters ``1..k-1`` all arrived on the path; FIFO-Receive-All (line 12)
    walks every node of ``reach_node(F)`` and every simple path inside the
    reach set, origins in ``repr`` order and each origin's paths sorted, and
    asks for a stored, FIFO-received announcement equal to the one on the
    origin's first path.  A copy whose path, extended by the node, is not
    simple is dropped, and so is a copy whose round is not an int in ``[0,
    total_rounds)``; of the others, the first receipt per ``(origin, F,
    path)`` is stored, and the first per ``(origin, counter, path)`` is
    relayed to the out-neighbours outside the path (line 11).
    """

    def __init__(self, graph: DiGraph, node: Node, total_rounds: int) -> None:
        self.graph = graph
        self.node = node
        self.total_rounds = total_rounds
        #: ``(origin, path)`` → every counter received that way.
        self.counters: Dict[Tuple[Hashable, Tuple], Set[int]] = {}
        #: ``(round, origin, F, path)`` → ``(values, counter, content)``.
        self.stored: Dict[Tuple, Tuple] = {}
        self.relayed: Set[Tuple] = set()
        #: fault set → its wait list (graph-only, so built once).
        self._wait_lists: Dict[FrozenSet[Node], List[Tuple[Node, Tuple]]] = {}

    def announce(self, message) -> None:
        """The node's own COMPLETE, received trivially on the path ``⟨node⟩``."""
        key = (message.round, self.node, message.fault_set, (self.node,))
        self.stored[key] = (message.values, message.fifo_counter, message.content_key())

    def receive(self, sender: Node, message) -> List[Tuple[Node, Tuple]]:
        """Record ``message`` from ``sender``; return the relays it causes as
        ``(receiver, (round, origin, fault set, values, counter, path))``."""
        path = tuple(message.path)
        if not path or path[-1] != sender:
            return []
        extended = path + (self.node,)
        if not is_simple(extended):
            return []
        if type(message.round) is not int or not 0 <= message.round < self.total_rounds:
            return []
        origin, counter = message.origin, message.fifo_counter
        fault_set = frozenset(message.fault_set)
        self.counters.setdefault((origin, extended), set()).add(counter)
        key = (message.round, origin, fault_set, extended)
        if key not in self.stored:
            content = (message.round, origin, fault_set, message.values, counter)
            self.stored[key] = (message.values, counter, content)
        if (origin, counter, extended) in self.relayed:
            return []
        self.relayed.add((origin, counter, extended))
        relay = (message.round, origin, message.fault_set, message.values, counter, extended)
        return [
            (neighbor, relay)
            for neighbor in sorted(self.graph.successors(self.node), key=repr)
            if neighbor not in extended
        ]

    def fifo_received(self, origin: Hashable, path: Tuple, counter: int) -> bool:
        if origin == self.node:
            return True
        seen = self.counters.get((origin, path), set())
        return all(earlier in seen for earlier in range(1, counter))

    def wait_list(self, fault_set: FrozenSet[Node]) -> List[Tuple[Node, Tuple]]:
        """``(origin, path)`` for every node of ``reach_node(F)`` but the node
        itself and every simple path from it inside the reach set."""
        found = self._wait_lists.get(fault_set)
        if found is None:
            reach = reach_set(self.graph, self.node, fault_set)
            found = self._wait_lists[fault_set] = [
                (origin, path)
                for origin in sorted(reach, key=repr)
                if origin != self.node
                for path in sorted(simple_paths_inside(self.graph, reach, origin, self.node))
            ]
        return found

    def scan_position(self, round_index: int, fault_set: FrozenSet[Node]) -> int:
        """How many leading entries of :meth:`wait_list` are met."""
        entries = self.wait_list(fault_set)
        first: Dict[Hashable, Tuple] = {}
        for position, (origin, path) in enumerate(entries):
            stored = self.stored.get((round_index, origin, fault_set, path))
            if stored is None or not self.fifo_received(origin, path, stored[1]):
                return position
            if stored[2] != first.setdefault(origin, stored[2]):
                return position
        return len(entries)


# ----------------------------------------------------------------------
# Algorithm 3: Filter-and-Average
# ----------------------------------------------------------------------
def literal_filter_and_average(
    entries: Iterable[Tuple[float, Tuple]], f: int, node: Node
) -> Optional[Tuple[float, int, int, List[float]]]:
    """Algorithm 3 as the paper states it, on ``(value, path)`` entries.

    Sorts every entry by value, ties by path (line 1), removes the longest
    prefix and the longest suffix whose paths admit an f-cover avoiding the
    evaluating ``node`` (lines 2-4), testing every prefix with
    :func:`~repro.graphs.paths.has_f_cover`, and returns ``(new value,
    trimmed low, trimmed high, kept values)`` — or ``None`` when nothing is
    kept.
    """
    ordered = sorted(entries)

    def coverable_prefix(run: List[Tuple[float, Tuple]]) -> int:
        length = 0
        for end in range(1, len(run) + 1):
            if not has_f_cover([path for _, path in run[:end]], f, forbidden={node}):
                break
            length = end
        return length

    low = coverable_prefix(ordered)
    high = coverable_prefix(ordered[::-1])
    kept = [value for value, _ in ordered[low : len(ordered) - high]]
    if not kept:
        return None
    return (max(kept) + min(kept)) / 2.0, low, high, kept


# ----------------------------------------------------------------------
# Algorithm 1 with Algorithms 2-4 and Appendix F: one whole BW node
# ----------------------------------------------------------------------
def literal_completeness(
    graph: DiGraph,
    f: int,
    node: Node,
    received: Dict[Tuple, float],
    values: Dict[Hashable, Any],
    fault_set_u: FrozenSet[Node],
) -> bool:
    """Algorithm 2 at ``node`` for the announcement ``(values, COMPLETE(F_u))``:
    for every ``F_w ≠ F_u`` (``|F_w| ≤ f``) and every ``q ∈ S_{F_u, F_w}``,
    the received paths from ``q`` carrying ``values[q]`` admit no f-cover
    outside ``S_{F_u, F_w} ∪ {node}`` (covers never hold the evaluating
    node; see DESIGN.md)."""
    for fault_set_w in iter_subsets(sorted(graph.nodes, key=repr), f):
        if fault_set_w == fault_set_u:
            continue
        component = source_component(graph, fault_set_u, fault_set_w)
        for source in component:
            if source not in values:
                return False
            confirming = [
                path for path, value in received.items()
                if path[0] == source and value == values[source]
            ]
            if has_f_cover(confirming, f, forbidden=component | {node}):
                return False
    return True


class LiteralBW(Process):
    """One BW node as Algorithm 1 writes it, with RedundantFlood
    (Algorithm 4), Completeness (Algorithm 2), Filter-and-Average
    (Algorithm 3) and the FIFO flood of Appendix F.

    Everything is keyed by tuples: ``M`` per round as ``path → value``, the
    stored announcements under ``(origin, F, path)``, every FIFO counter
    received from ``origin`` over ``path``.  No thread is parked and no
    verdict is remembered.  On every receipt the node re-evaluates every
    thread of the current round, in candidate order: a thread that has not
    announced checks Maximal-Consistency (line 10) and FIFO-floods
    ``COMPLETE(F)`` when it holds (line 11); then the first announced thread
    whose FIFO-Receive-All (line 12) and Verify (line 14) both hold runs
    Filter-and-Average and moves the node to the next round (lines 15-19).
    Rounds the node has already left keep checking Maximal-Consistency on
    their receipts, since other nodes wait for their announcements.

    The choices the paper leaves open are the ones
    :class:`~repro.algorithms.bw.BWProcess` makes, so that the two send the
    same messages: relays and floods go to out-neighbours in ``repr`` order,
    the threads of one receipt announce in candidate order (the order of
    :func:`~repro.conditions.reach_conditions.iter_subsets` over the
    ``repr``-sorted nodes), the first message per path is kept, a COMPLETE
    is relayed once per ``(round, origin, counter, path)``, and malformed
    payloads are dropped on receipt, as is a COMPLETE copy over a path that
    is not simple and any receipt whose round is not an int in ``[0,
    total_rounds)`` (no honest node sends one, so dropping it is the sender
    staying silent).
    """

    def __init__(
        self, node: Node, graph: DiGraph, initial_value: float, config: ConsensusConfig
    ) -> None:
        super().__init__(node)
        self.graph = graph
        self.f = config.f
        self.policy = is_redundant if config.path_policy == "redundant" else is_simple
        self.total_rounds = config.rounds_needed()
        self.current_round = 0
        self.state_value = config.validate_input(initial_value)
        self.value_history = [self.state_value]
        self.out_neighbors = sorted(graph.successors(node), key=repr)
        self.threads = [
            fault_set
            for fault_set in iter_subsets(sorted(graph.nodes, key=repr), self.f)
            if node not in fault_set
        ]
        self.fifo_counter = 0
        self.started: Set[Hashable] = set()
        #: round → ``M_v``, ``path → value``.
        self.received: Dict[Hashable, Dict[Tuple, float]] = {}
        #: round → the fault sets of the threads that announced.
        self.announced: Dict[Hashable, Set[FrozenSet[Node]]] = {}
        #: round → ``(origin, F, path)`` → ``(values, counter)``.
        self.stored: Dict[Hashable, Dict[Tuple, Tuple]] = {}
        #: ``(round, origin, counter, path)`` of every COMPLETE relayed.
        self.relayed: Set[Tuple] = set()
        #: ``(origin, path)`` → every FIFO counter received that way.
        self.counters: Dict[Tuple, Set[int]] = {}
        #: graph-only sets, per thread: policy walks of ``G_{V\F}``
        #: ending at the node, and ``reach_node(F)``.
        self._required: Dict[FrozenSet[Node], Set[Tuple]] = {}
        self._reach: Dict[FrozenSet[Node], FrozenSet[Node]] = {}

    # -- graph-only definitions ----------------------------------------
    def required_paths(self, fault_set: FrozenSet[Node]) -> Set[Tuple]:
        """Definition 9's path set: every walk of ``G_{V\\F}`` ending at the
        node that the flooding policy admits (the trivial path included).
        Both policies keep every suffix of an admitted walk, so the walks
        grow backwards from the node."""
        found = self._required.get(fault_set)
        if found is None:
            found = set()
            frontier = [(self.node_id,)]
            while frontier:
                walk = frontier.pop()
                found.add(walk)
                for predecessor in self.graph.predecessors(walk[0]):
                    longer = (predecessor,) + walk
                    if predecessor not in fault_set and self.policy(longer):
                        frontier.append(longer)
            self._required[fault_set] = found
        return found

    def reach(self, fault_set: FrozenSet[Node]) -> FrozenSet[Node]:
        found = self._reach.get(fault_set)
        if found is None:
            found = self._reach[fault_set] = reach_set(self.graph, self.node_id, fault_set)
        return found

    # -- lifecycle -------------------------------------------------------
    def on_start(self) -> None:
        if self.total_rounds == 0:
            self.decide(self.state_value)
            return
        self._start_round(0)

    def _start_round(self, round_index: int) -> None:
        self.started.add(round_index)
        trivial = (self.node_id,)
        self.received.setdefault(round_index, {}).setdefault(trivial, self.state_value)
        message = ValueMessage(round_index, self.state_value, trivial)
        self.require_context().send_many(self.out_neighbors, message)
        self._evaluate_current()

    def on_message(self, sender: Node, payload: Any) -> None:
        if isinstance(payload, ValueMessage):
            round_index = self._receive_value(sender, payload)
        elif isinstance(payload, CompleteMessage):
            round_index = self._receive_complete(sender, payload)
        else:
            round_index = None
        if round_index in self.started and round_index != self.current_round:
            self._announce(round_index)
        self._evaluate_current()

    # -- receipts --------------------------------------------------------
    def _runs(self, round_index: Any) -> bool:
        """Whether some node runs ``round_index``: an int in ``[0, total_rounds)``."""
        return type(round_index) is int and 0 <= round_index < self.total_rounds

    def _receive_value(self, sender: Node, message: ValueMessage) -> Optional[Hashable]:
        """Algorithm 4 at a relay: keep the first value per path, relay it
        to every out-neighbour the policy lets the path extend to."""
        try:
            path = tuple(message.path)
            if not path or path[-1] != sender:
                return None
            extended = path + (self.node_id,)
            hash(extended)
            value = message.value
            if not -sys.float_info.max <= value <= sys.float_info.max:
                return None
            round_index = message.round
        except TypeError:
            return None
        if not self._runs(round_index) or not self.policy(extended):
            return None
        received = self.received.setdefault(round_index, {})
        if extended in received:
            return round_index
        value = received[extended] = float(value)
        targets = [u for u in self.out_neighbors if self.policy(extended + (u,))]
        self.require_context().send_many(targets, ValueMessage(round_index, value, extended))
        return round_index

    def _receive_complete(self, sender: Node, message: CompleteMessage) -> Optional[Hashable]:
        """Appendix F at a relay: record the counter, keep the first copy
        per ``(origin, F, path)``, relay along simple paths."""
        try:
            path = tuple(message.path)
            if not path or path[-1] != sender:
                return None
            extended = path + (self.node_id,)
            if not is_simple(extended):
                return None
            round_index = message.round
            if not self._runs(round_index):
                return None
            counter = message.fifo_counter
            if type(counter) is not int:
                return None
            origin = message.origin
            hash(origin)
            fault_set = frozenset(message.fault_set)
            values = message.values
            hash(values)
            dict(values)
        except (TypeError, ValueError):
            return None
        self.counters.setdefault((origin, extended), set()).add(counter)
        self.stored.setdefault(round_index, {}).setdefault(
            (origin, fault_set, extended), (values, counter)
        )
        key = (round_index, origin, counter, extended)
        if key not in self.relayed:
            self.relayed.add(key)
            relay = CompleteMessage(
                round_index, origin, message.fault_set, values, counter, extended
            )
            targets = [u for u in self.out_neighbors if u not in extended]
            self.require_context().send_many(targets, relay)
        return round_index

    # -- lines 10-19 -----------------------------------------------------
    def _evaluate_current(self) -> None:
        round_index = self.current_round
        if round_index not in self.started:
            return  # the node has decided
        self._announce(round_index)
        for fault_set in self.threads:
            if (
                fault_set in self.announced[round_index]
                and self._fifo_receive_all(round_index, fault_set)
                and self._verify(round_index, fault_set)
            ):
                self._advance(round_index)
                return

    def _announce(self, round_index: Hashable) -> None:
        """Lines 10-11: every thread whose ``M|_F`` is full and consistent
        FIFO-floods ``COMPLETE(F)`` with the value map of ``M|_F``, once."""
        received = self.received[round_index]
        announced = self.announced.setdefault(round_index, set())
        for fault_set in self.threads:
            if fault_set in announced or not self.required_paths(fault_set) <= received.keys():
                continue
            value_map: Dict[Hashable, Set[float]] = {}
            for path, value in received.items():
                if not fault_set.intersection(path):
                    value_map.setdefault(path[0], set()).add(value)
            if any(len(found) > 1 for found in value_map.values()):
                continue  # inconsistent (Definition 8)
            announced.add(fault_set)
            self.fifo_counter += 1
            values = sort_value_pairs((origin, found.pop()) for origin, found in value_map.items())
            own = (self.node_id,)
            self.stored.setdefault(round_index, {})[(self.node_id, fault_set, own)] = (
                values, self.fifo_counter
            )
            message = CompleteMessage(
                round_index, self.node_id, fault_set, values, self.fifo_counter, own
            )
            self.require_context().send_many(self.out_neighbors, message)

    def fifo_received(self, origin: Hashable, path: Tuple, counter: int) -> bool:
        """Appendix F: counters ``1..counter-1`` from ``origin`` all arrived
        over ``path`` (the node's own announcements trivially)."""
        if origin == self.node_id:
            return True
        seen = self.counters.get((origin, path), set())
        return all(earlier in seen for earlier in range(1, counter))

    def _fifo_receive_all(self, round_index: Hashable, fault_set: FrozenSet[Node]) -> bool:
        """Line 12: from every node of ``reach(F)``, over every simple path
        inside it, a stored, FIFO-received ``COMPLETE(F)``, all copies of one
        origin identical."""
        reach = self.reach(fault_set)
        stored = self.stored.get(round_index, {})
        for origin in reach:
            copies = set()
            for path in simple_paths_inside(self.graph, reach, origin, self.node_id):
                copy = stored.get((origin, fault_set, path))
                if copy is None or not self.fifo_received(origin, path, copy[1]):
                    return False
                copies.add(copy)
            if len(copies) > 1:
                return False
        return True

    def _verify(self, round_index: Hashable, fault_set: FrozenSet[Node]) -> bool:
        """Lines 20-26: Completeness for every announcement FIFO-received
        over a path inside ``reach(F)``."""
        reach = self.reach(fault_set)
        received = self.received[round_index]
        for (origin, announced_set, path), (values, counter) in self.stored[round_index].items():
            if reach.issuperset(path) and self.fifo_received(origin, path, counter):
                if not literal_completeness(
                    self.graph, self.f, self.node_id, received, dict(values), announced_set
                ):
                    return False
        return True

    def _advance(self, round_index: Hashable) -> None:
        entries = [(value, path) for path, value in self.received[round_index].items()]
        self.state_value = literal_filter_and_average(entries, self.f, self.node_id)[0]
        self.value_history.append(self.state_value)
        self.current_round = round_index + 1
        if self.current_round >= self.total_rounds:
            self.decide(self.state_value)
            return
        self._start_round(self.current_round)


# ----------------------------------------------------------------------
# TopologyKnowledge, one subgraph enumeration per (node, F)
# ----------------------------------------------------------------------
class SubgraphTopology:
    """The per-thread objects of
    :class:`~repro.algorithms.topology.TopologyKnowledge`, each enumerated
    in its own subgraph: the required paths of ``(node, F)`` in
    ``G_{V\\F}``, the FIFO-Receive-All paths in the graph induced on
    ``reach_node(F)``.  The path table numbers the union of the ``F = ∅``
    required paths in lexicographic order, and a path's record is
    ``[policy verdict, member mask, id]`` from the path itself.
    """

    def __init__(self, graph: DiGraph, f: int, path_policy: str) -> None:
        self.graph = graph
        self.path_policy = path_policy
        self.nodes = sorted(graph.nodes, key=repr)
        self.fault_candidates = {
            node: [fs for fs in iter_subsets(self.nodes, f) if node not in fs]
            for node in self.nodes
        }
        self.engine = BitsetIndex.for_graph(graph)
        universe = set()
        for node in self.nodes:
            universe.update(self.required_paths(node, frozenset()))
        self.table = PathTable.lexicographic(universe)

    def required_paths(self, node: Node, fault_set: FrozenSet[Node]) -> FrozenSet[Tuple]:
        subgraph = self.graph.exclude_nodes(fault_set)
        if self.path_policy == "redundant":
            paths = enumerate_redundant_paths_to(subgraph, node)
        else:
            paths = enumerate_simple_paths_to(subgraph, node)
        return frozenset(paths) | {(node,)}

    def required_path_ids(self, node: Node, fault_set: FrozenSet[Node]) -> FrozenSet[int]:
        return frozenset(self.table.ids[path] for path in self.required_paths(node, fault_set))

    def required_index(self, node: Node) -> Dict[int, Tuple[FrozenSet[Node], ...]]:
        mapping: Dict[int, List[FrozenSet[Node]]] = {}
        for fault_set in self.fault_candidates[node]:
            for path_id in self.required_path_ids(node, fault_set):
                mapping.setdefault(path_id, []).append(fault_set)
        return {path_id: tuple(entry) for path_id, entry in mapping.items()}

    def thread_plan(self, node: Node) -> Tuple[Tuple[FrozenSet[Node], int, int], ...]:
        return tuple(
            (fault_set, self.engine.mask_of(fault_set), len(self.required_paths(node, fault_set)))
            for fault_set in self.fault_candidates[node]
        )

    def simple_paths_within_reach(
        self, node: Node, fault_set: FrozenSet[Node]
    ) -> Dict[Node, Tuple[Tuple, ...]]:
        reach = reach_set(self.graph, node, fault_set)
        subgraph = self.graph.induced_subgraph(reach)
        per_origin: Dict[Node, List[Tuple]] = {c: [] for c in self.nodes if c in reach}
        for path in enumerate_simple_paths_to(subgraph, node):
            if is_fully_contained(path, reach):
                per_origin.setdefault(path[0], []).append(path)
        return {origin: tuple(sorted(paths)) for origin, paths in per_origin.items()}

    def fifo_wait_list(self, node: Node, fault_set: FrozenSet[Node]) -> Tuple[Tuple, ...]:
        flat = []
        for origin, paths in self.simple_paths_within_reach(node, fault_set).items():
            if origin == node:
                continue
            first_key = None
            for path in paths:
                path_id = self.table.ids[path]
                entry_key = (origin, fault_set, path_id)
                flat.append((entry_key, (origin, path_id), first_key))
                if first_key is None:
                    first_key = entry_key
        return tuple(flat)

    def path_record(self, path: Tuple) -> List:
        policy = is_redundant if self.path_policy == "redundant" else is_simple
        codec = PathCodec.for_engine(self.engine)
        return [policy(path), codec.member_mask(path), self.table.ids[path]]

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
  f-cover search per prefix (:func:`literal_filter_and_average`).

They are exponentially slower than the checkers in
:mod:`repro.conditions.reach_conditions` and
:mod:`repro.conditions.partition_conditions`, and exist only so the tests
can validate those checkers against the paper's text on small graphs.
Inputs are validated by the checkers' shared
:func:`~repro.conditions.reach_conditions.validate_query`.
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, Hashable, Iterable, List, Optional, Set, Tuple

from repro.conditions.certificates import ConditionReport, PartitionViolation, ReachViolation
from repro.conditions.reach_conditions import iter_subsets, validate_query
from repro.graphs.bitset import BitsetIndex
from repro.graphs.digraph import DiGraph, Node
from repro.graphs.paths import has_f_cover
from repro.graphs.reach import reach_set
from repro.network.delays import ConstantDelay, PerLinkDelay


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
    origin's first path.  The first receipt per ``(origin, F, path)`` is
    stored, and the first per ``(origin, counter, path)`` is relayed to the
    out-neighbours outside the path (line 11).
    """

    def __init__(self, graph: DiGraph, node: Node) -> None:
        self.graph = graph
        self.node = node
        #: ``(origin, path)`` → every counter received that way.
        self.counters: Dict[Tuple[Hashable, Tuple], Set[int]] = {}
        #: ``(round, origin, F, path)`` → ``(values, counter, content)``.
        self.stored: Dict[Tuple, Tuple] = {}
        self.relayed: Set[Tuple] = set()

    def announce(self, message) -> None:
        """The node's own COMPLETE, received trivially on the path ``⟨node⟩``."""
        key = (message.round, self.node, message.fault_set, (self.node,))
        self.stored[key] = (message.values, message.fifo_counter, message.content_key())

    def receive(self, sender: Node, message) -> List[Tuple[Node, Tuple]]:
        """Record ``message`` from ``sender``; return the relays it causes as
        ``(receiver, (round, origin, fault set, values, counter, path))``."""
        path = tuple(message.path)
        if not path or path[-1] != sender or self.node in path:
            return []
        extended = path + (self.node,)
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
        reach = reach_set(self.graph, self.node, fault_set)
        return [
            (origin, path)
            for origin in sorted(reach, key=repr)
            if origin != self.node
            for path in sorted(simple_paths_inside(self.graph, reach, origin, self.node))
        ]

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

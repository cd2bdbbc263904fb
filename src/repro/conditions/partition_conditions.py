"""The partition conditions CCS, CCA and BCS (Definitions 16–18, Appendix A).

Tseng and Vaidya's original characterizations are phrased over partitions of
the node set:

* **CCS** (crash, synchronous):  for every partition ``F, L, C, R`` with
  ``L, R ≠ ∅`` and ``|F| ≤ f``: ``L ∪ C →¹ R`` or ``R ∪ C →¹ L``.
* **CCA** (crash, asynchronous): for every partition ``L, C, R`` with
  ``L, R ≠ ∅``: ``L ∪ C →^{f+1} R`` or ``R ∪ C →^{f+1} L``.
* **BCS** (Byzantine, synchronous — and, by the paper's main theorem, also
  Byzantine asynchronous): for every partition ``F, L, C, R`` with
  ``L, R ≠ ∅`` and ``|F| ≤ f``: ``L ∪ C →^{f+1} R`` or ``R ∪ C →^{f+1} L``.

``A →^x B`` means ``B`` has at least ``x`` distinct incoming neighbours inside
``A`` (Definition 14).

Checkers here avoid the naive enumeration of all 4-way partitions by using
the standard contrapositive: a condition fails exactly when, after removing a
fault candidate ``F``, there exist two *disjoint, non-empty* node sets each
receiving at most ``x - 1`` incoming neighbours from outside itself.  The
inner search enumerates subsets with bitmasks (exact, exhaustive).
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.conditions.certificates import ConditionReport, PartitionViolation
from repro.conditions.reach_conditions import iter_subsets, validate_query
from repro.graphs.bitset import BitsetIndex
from repro.graphs.digraph import DiGraph, Node


# ----------------------------------------------------------------------
# bitmask machinery shared by the fast checkers
# ----------------------------------------------------------------------
class _PartitionEngine:
    """Partition-search view over the shared :class:`BitsetIndex` engine.

    The node ↔ bit mapping, codecs and adjacency masks come from the per-graph
    shared index (the same one the reach checkers use), so every checker
    operating on one graph shares one encoding; only the partition-specific
    subset search lives here.
    """

    def __init__(self, graph: DiGraph) -> None:
        self.bitset = BitsetIndex.for_graph(graph)
        self.nodes: List[Node] = self.bitset.nodes
        self.index: Dict[Node, int] = self.bitset.index
        self.n = self.bitset.n
        self.full_mask = self.bitset.full_mask

    def mask_of(self, nodes: Iterable[Node]) -> int:
        return self.bitset.mask_of(nodes)

    def nodes_of(self, mask: int) -> FrozenSet[Node]:
        return self.bitset.nodes_of(mask)

    def external_in_neighbors(self, subset_mask: int, allowed_mask: int) -> int:
        """Incoming neighbourhood of ``subset`` restricted to ``allowed \\ subset``."""
        return self.bitset.in_neighbors_mask(subset_mask, allowed_mask)

    def find_disjoint_weak_pair(
        self, allowed_mask: int, threshold: int
    ) -> Optional[Tuple[int, int, int, int]]:
        """Find two disjoint non-empty subsets of ``allowed``, each with at
        most ``threshold`` external in-neighbours inside ``allowed``.

        Returns ``(left_mask, right_mask, left_incoming, right_incoming)`` or
        ``None``.  This is exactly the contrapositive of "for every partition
        L, C, R: L∪C →^{threshold+1} R or R∪C →^{threshold+1} L".

        Subset generation and disjointness checking are interleaved (smallest
        subsets first) so a violating pair is reported as soon as possible;
        the exhaustive sweep only happens when the condition actually holds.
        """
        members = [i for i in range(self.n) if allowed_mask & (1 << i)]
        weak: List[int] = []
        for size in range(1, len(members) + 1):
            for combo in combinations(members, size):
                mask = 0
                for node_index in combo:
                    mask |= 1 << node_index
                incoming = self.external_in_neighbors(mask, allowed_mask)
                if incoming.bit_count() > threshold:
                    continue
                for other in weak:
                    if other & mask == 0:
                        left_in = self.external_in_neighbors(other, allowed_mask).bit_count()
                        right_in = incoming.bit_count()
                        return other, mask, left_in, right_in
                weak.append(mask)
        return None


def _report_from_pair(
    engine: _PartitionEngine,
    condition: str,
    f: int,
    fault_mask: int,
    pair: Tuple[int, int, int, int],
    checks: int,
) -> ConditionReport:
    left_mask, right_mask, left_in, right_in = pair
    allowed_mask = engine.full_mask & ~fault_mask
    center_mask = allowed_mask & ~left_mask & ~right_mask
    violation = PartitionViolation(
        fault_set=engine.nodes_of(fault_mask),
        left=engine.nodes_of(left_mask),
        center=engine.nodes_of(center_mask),
        right=engine.nodes_of(right_mask),
        left_incoming=left_in,
        right_incoming=right_in,
    )
    return ConditionReport(
        condition=condition,
        f=f,
        holds=False,
        partition_violation=violation,
        checks_performed=checks,
    )


# ----------------------------------------------------------------------
# public checkers
# ----------------------------------------------------------------------
def check_cca(graph: DiGraph, f: int) -> ConditionReport:
    """Check condition CCA (Definition 17) — crash, asynchronous, approximate.

    Holds iff there are no two disjoint non-empty node sets each with at most
    ``f`` incoming neighbours from the rest of the graph.
    """
    f, _ = validate_query(graph, f)
    engine = _PartitionEngine(graph)
    pair = engine.find_disjoint_weak_pair(engine.full_mask, f)
    checks = 1 << engine.n
    if pair is None:
        return ConditionReport(condition="CCA", f=f, holds=True, checks_performed=checks)
    return _report_from_pair(engine, "CCA", f, 0, pair, checks)


def check_ccs(graph: DiGraph, f: int) -> ConditionReport:
    """Check condition CCS (Definition 16) — crash, synchronous, exact.

    Holds iff for every fault candidate ``F`` (``|F| ≤ f``) the graph induced
    on ``V \\ F`` has no two disjoint non-empty sets without *any* external
    incoming neighbour — equivalently, ``G_{V \\ F}`` has a single source
    strongly-connected component (a rooted spanning tree exists).
    """
    f, _ = validate_query(graph, f)
    engine = _PartitionEngine(graph)
    total_checks = 0
    for fault in iter_subsets(graph.nodes, f):
        fault_mask = engine.mask_of(fault)
        allowed_mask = engine.full_mask & ~fault_mask
        # Fast path: count source SCCs of the induced subgraph (bitmask
        # Tarjan on the shared engine — no subgraph materialisation).
        components = engine.bitset.scc_masks(allowed_mask)
        total_checks += len(components)
        sources = [
            component
            for component in components
            if engine.external_in_neighbors(component, allowed_mask) == 0
        ]
        if len(sources) >= 2:
            pair = (sources[0], sources[1], 0, 0)
            return _report_from_pair(engine, "CCS", f, fault_mask, pair, total_checks)
        # fault = V: no components — vacuously fine (no L, R can be formed).
    return ConditionReport(condition="CCS", f=f, holds=True, checks_performed=total_checks)


def check_bcs(graph: DiGraph, f: int) -> ConditionReport:
    """Check condition BCS (Definition 18) — Byzantine, synchronous, exact.

    By the paper's main theorem the same condition is tight for asynchronous
    Byzantine approximate consensus.  Holds iff for every fault candidate
    ``F`` (``|F| ≤ f``) condition CCA holds in the graph induced on
    ``V \\ F``.
    """
    f, _ = validate_query(graph, f)
    engine = _PartitionEngine(graph)
    total_checks = 0
    for fault in iter_subsets(graph.nodes, f):
        fault_mask = engine.mask_of(fault)
        allowed_mask = engine.full_mask & ~fault_mask
        remaining = engine.n - fault_mask.bit_count()
        total_checks += 1 << remaining
        pair = engine.find_disjoint_weak_pair(allowed_mask, f)
        if pair is not None:
            return _report_from_pair(engine, "BCS", f, fault_mask, pair, total_checks)
    return ConditionReport(condition="BCS", f=f, holds=True, checks_performed=total_checks)

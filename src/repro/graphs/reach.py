"""Reach sets, reduced graphs, source components and propagation.

These are the paper's central graph-theoretic gadgets:

* ``reach_v(F)`` — Definition 2 / Definition 15: the nodes of ``V \\ F`` that
  have a directed path to ``v`` inside the induced subgraph ``G_{V \\ F}``
  (``v`` itself always belongs to its reach set).
* reduced graph ``G_{F1,F2}`` — Definition 5: remove all *outgoing* edges of
  nodes in ``F1 ∪ F2`` (the vertex set is untouched).
* source component ``S_{F1,F2}`` — Definition 6: nodes of the reduced graph
  with directed paths to *all* nodes of ``V``.
* propagation ``A ⇝_C B`` — Definition 10: every node of ``B`` has at least
  ``f + 1`` node-disjoint ``(A, b)``-paths inside ``G_C``.
* Theorem 5 — under 3-reach, ``S_{F1,F2}`` propagates in ``V \\ F1`` to
  ``V \\ F1 \\ S`` and in ``V \\ F2`` to ``V \\ F2 \\ S``.

All functions are exhaustive/exact.  Since the condition checkers, the
Byzantine-Witness verification path and the analysis layer all evaluate these
objects for (exponentially many) candidate fault sets, the set-level API here
is a thin wrapper over the shared integer-bitmask engine
(:class:`~repro.graphs.bitset.BitsetIndex`): node sets are encoded once per
graph, queries run as word-level fixed points, and the engine's own memos
are keyed by canonical ``excluded_mask`` integers rather than frozensets.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable

from repro.exceptions import NodeNotFoundError
from repro.graphs.bitset import BitsetIndex
from repro.graphs.digraph import DiGraph, Node
from repro.graphs.flow import max_disjoint_paths_from_set

FaultSet = FrozenSet[Node]


def reach_set(graph: DiGraph, node: Node, excluded: Iterable[Node] = ()) -> FrozenSet[Node]:
    """``reach_v(F)`` — Definition 2.

    Nodes ``u ∈ V \\ F`` with a directed path from ``u`` to ``node`` inside the
    induced subgraph ``G_{V \\ F}``.  The node itself is always included
    (trivially, by the empty path).  ``node`` must not belong to ``excluded``.
    """
    if node not in graph:
        raise NodeNotFoundError(node)
    excluded_set = frozenset(excluded)
    if node in excluded_set:
        raise ValueError(f"node {node!r} cannot be in its own excluded set")
    index = BitsetIndex.for_graph(graph)
    excluded_mask = index.mask_of(excluded_set, ignore_missing=True)
    return index.nodes_of(index.reach_mask(node, excluded_mask))


def reach_sets_for_all_nodes(
    graph: DiGraph, excluded: Iterable[Node] = ()
) -> Dict[Node, FrozenSet[Node]]:
    """``reach_v(F)`` for every node ``v ∉ F`` at once (single fixed point)."""
    index = BitsetIndex.for_graph(graph)
    excluded_mask = index.mask_of(excluded, ignore_missing=True)
    reach = index.reach_masks(excluded_mask)
    return {
        node: index.nodes_of(reach[i])
        for i, node in enumerate(index.nodes)
        if not excluded_mask & (1 << i)
    }


def reduced_graph(graph: DiGraph, f1: Iterable[Node], f2: Iterable[Node]) -> DiGraph:
    """The reduced graph ``G_{F1,F2}`` of Definition 5.

    All outgoing edges of nodes in ``F1 ∪ F2`` are removed; the node set is
    preserved.  Note the graph keeps incoming edges into ``F1 ∪ F2``.
    """
    blocked = set(f1) | set(f2)
    return graph.remove_outgoing_edges_of(blocked)


def source_component(graph: DiGraph, f1: Iterable[Node], f2: Iterable[Node]) -> FrozenSet[Node]:
    """The source component ``S_{F1,F2}`` of Definition 6.

    Nodes of the reduced graph ``G_{F1,F2}`` that have directed paths to *all*
    nodes of ``V``.  The result may be empty; when non-empty it forms a
    strongly connected component of the reduced graph, it is disjoint from
    ``F1 ∪ F2`` (those nodes have no outgoing edges, hence cannot reach
    anything else), and it is the unique source SCC of the condensation.
    """
    index = BitsetIndex.for_graph(graph)
    blocked_mask = index.mask_of(f1, ignore_missing=True) | index.mask_of(
        f2, ignore_missing=True
    )
    return index.nodes_of(index.source_component_mask(blocked_mask))


def propagates(
    graph: DiGraph,
    source_set: Iterable[Node],
    target_set: Iterable[Node],
    within: Iterable[Node],
    f: int,
) -> bool:
    """The propagation relation ``A ⇝_C B`` of Definition 10.

    ``A`` propagates in ``C`` to ``B`` when ``B`` is empty, or every node
    ``b ∈ B`` has at least ``f + 1`` node-disjoint ``(A, b)``-paths fully
    contained in the induced subgraph ``G_C``.  ``A`` and ``B`` must be
    disjoint and ``B ⊆ C``.
    """
    a = frozenset(source_set)
    b = frozenset(target_set)
    c = frozenset(within)
    if a & b:
        raise ValueError("propagation requires A and B to be disjoint")
    if not b <= c:
        raise ValueError("propagation requires B ⊆ C")
    if not b:
        return True
    allowed = c | a  # (A, b)-paths start in A; Definition 10's paths live in G_C,
    # and A ⊆ C in every use in the paper (A = S_{F1,F2} ⊆ V \ F1).  Keeping the
    # union makes the helper robust when callers pass A ⊄ C.
    for node in b:
        disjoint = max_disjoint_paths_from_set(graph, a, node, restrict_to=allowed)
        if disjoint < f + 1:
            return False
    return True


def theorem5_holds_for(
    graph: DiGraph, f1: Iterable[Node], f2: Iterable[Node], f: int
) -> bool:
    """Check the conclusion of Theorem 5 for a particular ``(F1, F2)`` pair.

    Under 3-reach, ``S_{F1,F2}`` propagates in ``V \\ F1`` to
    ``V \\ F1 \\ S_{F1,F2}`` and in ``V \\ F2`` to ``V \\ F2 \\ S_{F1,F2}``.
    Used by tests and by benchmark sanity checks (the main algorithm relies
    on the theorem implicitly).
    """
    f1_set = frozenset(f1)
    f2_set = frozenset(f2)
    component = source_component(graph, f1_set, f2_set)
    if not component:
        return False
    everything = graph.node_set()
    for excluded in (f1_set, f2_set):
        within = everything - excluded
        targets = within - component
        if not propagates(graph, component, targets, within, f):
            return False
    return True


def is_strongly_connected_subset(graph: DiGraph, nodes: Iterable[Node]) -> bool:
    """``True`` when the induced subgraph on ``nodes`` is strongly connected."""
    index = BitsetIndex.for_graph(graph)
    subset_mask = index.mask_of(nodes, ignore_missing=True)
    return index.is_strongly_connected_mask(subset_mask)

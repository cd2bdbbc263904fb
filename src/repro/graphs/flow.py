"""Vertex-disjoint path computations via max-flow (Menger's theorem).

The paper's *propagation* relation (Definition 10) requires at least
``f + 1`` node-disjoint ``(A, b)``-paths inside an induced subgraph, and the
discussion of Figure 1(b) counts vertex-disjoint paths between node pairs to
argue that all-pair reliable message transmission is infeasible.  Both boil
down to computing the maximum number of internally vertex-disjoint directed
paths, which equals a max-flow in the standard node-split network
(each node becomes ``node_in → node_out`` with unit capacity).

The implementation is a plain BFS augmenting-path (Edmonds–Karp) max-flow on
integer capacities — more than fast enough for the graph sizes the paper and
this reproduction consider.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, Iterable, Optional, Set, Tuple

from repro.exceptions import GraphError
from repro.graphs.digraph import DiGraph, Node

# Internal flow-network node: ("in"|"out", original node) or ("super", tag).
_FlowNode = Tuple[str, Hashable]


class _FlowNetwork:
    """A tiny max-flow network with integer capacities."""

    def __init__(self) -> None:
        self.capacity: Dict[_FlowNode, Dict[_FlowNode, int]] = {}

    def add_edge(self, u: _FlowNode, v: _FlowNode, capacity: int) -> None:
        self.capacity.setdefault(u, {})
        self.capacity.setdefault(v, {})
        self.capacity[u][v] = self.capacity[u].get(v, 0) + capacity
        self.capacity[v].setdefault(u, 0)

    def max_flow(self, source: _FlowNode, sink: _FlowNode) -> int:
        """Edmonds–Karp max flow; mutates residual capacities in place."""
        if source not in self.capacity or sink not in self.capacity:
            return 0
        total = 0
        while True:
            parents: Dict[_FlowNode, _FlowNode] = {source: source}
            queue = deque([source])
            while queue and sink not in parents:
                current = queue.popleft()
                for nxt, cap in self.capacity[current].items():
                    if cap > 0 and nxt not in parents:
                        parents[nxt] = current
                        queue.append(nxt)
            if sink not in parents:
                return total
            # Bottleneck along the augmenting path (always 1 here, but keep general).
            bottleneck = None
            node = sink
            while node != source:
                prev = parents[node]
                cap = self.capacity[prev][node]
                bottleneck = cap if bottleneck is None else min(bottleneck, cap)
                node = prev
            assert bottleneck is not None and bottleneck > 0
            node = sink
            while node != source:
                prev = parents[node]
                self.capacity[prev][node] -= bottleneck
                self.capacity[node][prev] += bottleneck
                node = prev
            total += bottleneck


def _build_node_split_network(
    graph: DiGraph,
    allowed: Optional[Set[Node]] = None,
    uncapacitated: Optional[Set[Node]] = None,
) -> _FlowNetwork:
    """Build the node-split network over ``allowed`` nodes.

    Every node becomes an ``in → out`` arc of capacity 1 (or unbounded for
    nodes in ``uncapacitated`` — sources/sinks of the query), and every graph
    edge ``(u, v)`` becomes ``u_out → v_in`` with capacity 1.  Unit edge
    capacities matter for adjacent query pairs: vertex-disjoint paths cannot
    share an edge, and the direct edge must count as exactly one path rather
    than an unbounded shortcut between the two uncapacitated endpoints.
    """
    allowed_nodes = graph.node_set() if allowed is None else frozenset(allowed)
    unbounded = len(allowed_nodes) + 1
    uncapacitated = uncapacitated or set()
    network = _FlowNetwork()
    for node in allowed_nodes:
        cap = unbounded if node in uncapacitated else 1
        network.add_edge(("in", node), ("out", node), cap)
    for u, v in graph.edges:
        if u in allowed_nodes and v in allowed_nodes:
            network.add_edge(("out", u), ("in", v), 1)
    return network


def max_vertex_disjoint_paths(
    graph: DiGraph,
    source: Node,
    target: Node,
    restrict_to: Optional[Iterable[Node]] = None,
) -> int:
    """Maximum number of internally vertex-disjoint ``(source, target)``-paths.

    ``source`` and ``target`` themselves are not counted as shared vertices
    (their split arcs are uncapacitated).  When ``restrict_to`` is given the
    paths must stay inside that node set (which must contain both endpoints).
    Returns 0 when no path exists; if the edge ``(source, target)`` exists it
    contributes one path.
    """
    if source == target:
        raise GraphError("source and target must differ for disjoint-path queries")
    allowed = graph.node_set() if restrict_to is None else frozenset(restrict_to)
    if source not in allowed or target not in allowed:
        return 0
    network = _build_node_split_network(
        graph, allowed=set(allowed), uncapacitated={source, target}
    )
    return network.max_flow(("out", source), ("in", target))


def max_disjoint_paths_from_set(
    graph: DiGraph,
    sources: Iterable[Node],
    target: Node,
    restrict_to: Optional[Iterable[Node]] = None,
) -> int:
    """Maximum number of node-disjoint ``(A, target)``-paths (Definition 10).

    The paths may share nothing except the terminal ``target``; distinct
    paths may start at the same source node only if that node is the path in
    its entirety — following the usual reading we attach a super-source to
    every node of ``A`` and keep each source's unit node capacity, so paths
    starting at the same source are *not* counted twice unless ``target`` is
    an out-neighbour multiple times (impossible in a simple graph).

    If ``target ∈ sources`` the propagation requirement is trivially
    satisfied; we return ``len(allowed)`` as an "infinite" sentinel.
    """
    source_set = {s for s in sources}
    allowed = graph.node_set() if restrict_to is None else frozenset(restrict_to)
    source_set &= set(allowed)
    if target not in allowed:
        return 0
    if target in source_set:
        return len(allowed)
    if not source_set:
        return 0
    network = _build_node_split_network(graph, allowed=set(allowed), uncapacitated={target})
    unbounded = len(allowed) + 1
    super_source: _FlowNode = ("super", "source")
    for node in source_set:
        # Each source keeps capacity 1 on its split arc, so each source node
        # contributes at most one disjoint path, as required by node-disjointness.
        network.add_edge(super_source, ("in", node), unbounded)
    return network.max_flow(super_source, ("in", target))


def vertex_connectivity(graph: DiGraph) -> int:
    """Global vertex connectivity κ(G) of a directed graph.

    κ(G) is the minimum over ordered pairs of distinct non-adjacent nodes of
    the minimum vertex cut; for graphs where every ordered pair is adjacent
    (complete digraphs) it is ``n - 1`` by convention.
    """
    nodes = graph.nodes
    n = len(nodes)
    if n <= 1:
        return 0
    best: Optional[int] = None
    for source in nodes:
        for target in nodes:
            if source == target or graph.has_edge(source, target):
                continue
            value = max_vertex_disjoint_paths(graph, source, target)
            best = value if best is None else min(best, value)
            if best == 0:
                return 0
    if best is None:
        return n - 1
    return best



"""Structural graph properties used by the Table 1 / Table 2 reproductions.

Table 1 of the paper states the classical undirected conditions in terms of
``n`` and the vertex connectivity ``κ(G)``; this module provides those
quantities (connectivity is computed through the max-flow machinery of
:mod:`repro.graphs.flow`) together with a few convenience predicates used by
the analysis layer and the ``check-table1`` sweep cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.graphs.digraph import DiGraph
from repro.graphs.flow import vertex_connectivity


def is_complete(graph: DiGraph) -> bool:
    """``True`` when every ordered pair of distinct nodes is an edge."""
    n = graph.num_nodes
    return graph.num_edges == n * (n - 1)


def min_in_degree(graph: DiGraph) -> int:
    """Minimum in-degree over all nodes (0 for the empty graph)."""
    if graph.num_nodes == 0:
        return 0
    return min(graph.in_degree(node) for node in graph.nodes)


def density(graph: DiGraph) -> float:
    """Edge density ``|E| / (n (n-1))`` (0 for graphs with < 2 nodes)."""
    n = graph.num_nodes
    if n < 2:
        return 0.0
    return graph.num_edges / (n * (n - 1))


def undirected_vertex_connectivity(graph: DiGraph) -> int:
    """κ(G) of a *bidirected* graph, i.e. the classical undirected connectivity.

    The graph is symmetrized first so that callers may pass either a true
    bidirected graph or an arbitrary digraph whose underlying undirected
    structure they care about (as Table 1 does).
    """
    if graph.num_nodes <= 1:
        return 0
    symmetric = graph.copy()
    for u, v in graph.edges:
        if not symmetric.has_edge(v, u):
            symmetric.add_edge(v, u)
    return vertex_connectivity(symmetric)


@dataclass(frozen=True)
class UndirectedFeasibility:
    """The four classical undirected feasibility predicates of Table 1.

    Attributes mirror the table cells: each is ``True`` when the respective
    classical necessary-and-sufficient condition holds for the given ``f``.
    """

    n: int
    kappa: int
    f: int
    crash_synchronous: bool
    crash_asynchronous: bool
    byzantine_synchronous: bool
    byzantine_asynchronous: bool


def undirected_feasibility(graph: DiGraph, f: int) -> UndirectedFeasibility:
    """Evaluate every Table 1 cell for an undirected (bidirected) graph.

    * crash, synchronous, exact:        ``n > f``  and ``κ(G) > f``
    * crash, asynchronous, approximate: ``n > 2f`` and ``κ(G) > f``
    * Byzantine, synchronous, exact:    ``n > 3f`` and ``κ(G) > 2f``
    * Byzantine, asynchronous, approx.: ``n > 3f`` and ``κ(G) > 2f``
    """
    n = graph.num_nodes
    kappa = undirected_vertex_connectivity(graph)
    return UndirectedFeasibility(
        n=n,
        kappa=kappa,
        f=f,
        crash_synchronous=n > f and kappa > f,
        crash_asynchronous=n > 2 * f and kappa > f,
        byzantine_synchronous=n > 3 * f and kappa > 2 * f,
        byzantine_asynchronous=n > 3 * f and kappa > 2 * f,
    )


def critical_edges_for_connectivity(graph: DiGraph, threshold: int) -> List:
    """Edges whose removal drops the undirected connectivity below ``threshold``.

    Used by the Figure 1(a) reproduction: the paper notes that removing *any*
    edge of that graph reduces κ(G) and breaks both RMT and consensus.  For a
    bidirected graph an "edge" is the undirected pair, so both directions are
    removed together.
    """
    critical = []
    seen = set()
    for u, v in graph.edges:
        key = frozenset((u, v))
        if key in seen:
            continue
        seen.add(key)
        trimmed = graph.copy()
        trimmed.remove_edge(u, v)
        if trimmed.has_edge(v, u):
            trimmed.remove_edge(v, u)
        if undirected_vertex_connectivity(trimmed) < threshold:
            critical.append((u, v))
    return critical

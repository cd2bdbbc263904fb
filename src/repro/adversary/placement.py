"""Fault-placement strategies.

Which nodes the adversary corrupts matters enormously in directed graphs:
corrupting the only bridge nodes between two regions is far more damaging
than corrupting leaves.  The experiment harness sweeps over the strategies
defined here; all of them respect the fault bound ``f``.
"""

from __future__ import annotations

import random
from typing import FrozenSet, Hashable, Iterable, List, Optional

from repro.exceptions import AdversaryError
from repro.graphs.digraph import DiGraph
from repro.registry import PLACEMENTS

NodeId = Hashable


def place_none(graph: DiGraph, f: int) -> FrozenSet[NodeId]:
    """No faults (control runs)."""
    return frozenset()


def place_explicit(nodes: Iterable[NodeId]) -> FrozenSet[NodeId]:
    """Use exactly the given nodes as the faulty set."""
    return frozenset(nodes)


def place_random(graph: DiGraph, f: int, seed: Optional[int] = None) -> FrozenSet[NodeId]:
    """Choose ``f`` faulty nodes uniformly at random."""
    if f < 0:
        raise AdversaryError("f must be non-negative")
    nodes = sorted(graph.nodes, key=repr)
    if f > len(nodes):
        raise AdversaryError(f"cannot corrupt {f} nodes of a {len(nodes)}-node graph")
    rng = random.Random(seed)
    return frozenset(rng.sample(nodes, f))


def place_max_out_degree(graph: DiGraph, f: int) -> FrozenSet[NodeId]:
    """Corrupt the ``f`` most influential nodes (largest out-degree).

    In directed graphs these are the nodes whose lies propagate the widest,
    typically the hardest placement for averaging protocols.
    """
    if f < 0:
        raise AdversaryError("f must be non-negative")
    ranked = sorted(graph.nodes, key=lambda node: (-graph.out_degree(node), repr(node)))
    return frozenset(ranked[:f])


def place_max_in_degree(graph: DiGraph, f: int) -> FrozenSet[NodeId]:
    """Corrupt the ``f`` best-informed nodes (largest in-degree)."""
    if f < 0:
        raise AdversaryError("f must be non-negative")
    ranked = sorted(graph.nodes, key=lambda node: (-graph.in_degree(node), repr(node)))
    return frozenset(ranked[:f])


def place_bridge_nodes(graph: DiGraph, f: int) -> FrozenSet[NodeId]:
    """Corrupt nodes whose removal disconnects the most reachability.

    A greedy heuristic: repeatedly remove the node whose deletion maximally
    reduces the number of ordered reachable pairs.  Expensive (O(f·n·(n+m)))
    but only used on the small graphs of the experiments; it approximates the
    "cut the bridges" adversary that directed topologies are vulnerable to.
    """
    if f < 0:
        raise AdversaryError("f must be non-negative")
    chosen: List[NodeId] = []
    working = graph.copy()

    def reachable_pairs(g: DiGraph) -> int:
        return sum(len(g.descendants(node)) for node in g.nodes)

    for _ in range(min(f, graph.num_nodes)):
        baseline = reachable_pairs(working)
        best_node = None
        best_score = None
        for node in sorted(working.nodes, key=repr):
            trimmed = working.copy()
            trimmed.remove_node(node)
            score = baseline - reachable_pairs(trimmed)
            if best_score is None or score > best_score:
                best_score = score
                best_node = node
        assert best_node is not None
        chosen.append(best_node)
        working.remove_node(best_node)
    return frozenset(chosen)


def place_last(graph: DiGraph, f: int) -> FrozenSet[NodeId]:
    """Corrupt the ``f`` last nodes in label order (deterministic, seed-free).

    Integer labels sort numerically (repr order would put 10 before 2);
    everything else falls back to repr order, mixed universes last.
    """
    if f < 0:
        raise AdversaryError("f must be non-negative")

    def order(node: NodeId):
        if isinstance(node, bool) or not isinstance(node, int):
            return (1, 0, repr(node))
        return (0, node, "")

    return frozenset(sorted(graph.nodes, key=order)[-f:]) if f else frozenset()


def all_fault_sets(graph: DiGraph, f: int, max_sets: Optional[int] = None) -> List[FrozenSet[NodeId]]:
    """Every faulty set of size exactly ``f`` (optionally truncated).

    Used by exhaustive small-graph experiments that sweep the adversary's
    placement entirely.
    """
    from itertools import combinations

    nodes = sorted(graph.nodes, key=repr)
    sets = [frozenset(combo) for combo in combinations(nodes, f)]
    if max_sets is not None:
        sets = sets[:max_sets]
    return sets


#: Every named strategy under one signature ``(graph, f, seed) -> frozenset``.
#: This is the single source the PLACEMENTS registry is populated from (and
#: the historical public mapping).
PLACEMENT_STRATEGIES = {
    "none": lambda graph, f, seed=None: frozenset(),
    "random": place_random,
    "max-out-degree": lambda graph, f, seed=None: place_max_out_degree(graph, f),
    "max-in-degree": lambda graph, f, seed=None: place_max_in_degree(graph, f),
    "bridges": lambda graph, f, seed=None: place_bridge_nodes(graph, f),
    "last": lambda graph, f, seed=None: place_last(graph, f),
}

_PLACEMENT_SUMMARIES = {
    "none": "no faults (control runs)",
    "random": "f faulty nodes chosen uniformly",
    "max-out-degree": "corrupt the f most influential nodes (largest out-degree)",
    "max-in-degree": "corrupt the f best-informed nodes (largest in-degree)",
    "bridges": "greedily corrupt the nodes whose removal cuts the most reachability",
    "last": "corrupt the f last nodes in label order (deterministic)",
}


# ----------------------------------------------------------------------
# registry: strategies addressable by name from grid axes / scenario files
# ----------------------------------------------------------------------
def _register_placements() -> None:
    for name, strategy in PLACEMENT_STRATEGIES.items():
        PLACEMENTS.register(name, strategy, summary=_PLACEMENT_SUMMARIES[name])


_register_placements()

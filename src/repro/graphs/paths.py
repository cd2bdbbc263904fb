"""Path machinery used throughout the paper (Section 3).

The paper manipulates three kinds of path objects:

* **simple paths** — no repeated vertices,
* **redundant paths** — concatenation ``p1 || p2`` of two simple paths
  (so at most one vertex repetition pattern; length bounded by ``2n``),
* **f-covers** — a node set of size at most ``f`` hitting every path of a
  path set (Definition 4).

Paths are represented as tuples of nodes, matching the paper's ordered-list
notation ``p = ⟨v1, ..., vk⟩``.  The helpers here validate paths against a
graph, enumerate all simple / redundant paths ending at a node, and decide
f-cover existence (a small hitting-set search, exact for the small ``f``
values the algorithms use).
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.exceptions import InvalidPathError
from repro.graphs.digraph import DiGraph, Node

Path = Tuple[Node, ...]


# ----------------------------------------------------------------------
# basic path operations (paper Section 3 terminology)
# ----------------------------------------------------------------------
def concatenate(prefix: Sequence[Node], suffix: Sequence[Node]) -> Path:
    """``p || p'`` — path concatenation; requires ``ter(p) == init(p')``.

    The shared endpoint is not duplicated in the result, matching the paper's
    convention ``p || u = ⟨v1, ..., vk, u⟩`` for a single node and
    ``p || p'`` for paths with ``ter(p) = init(p')``.
    """
    if not prefix:
        return tuple(suffix)
    if not suffix:
        return tuple(prefix)
    if prefix[-1] != suffix[0]:
        raise InvalidPathError(
            f"cannot concatenate: ter(prefix)={prefix[-1]!r} != init(suffix)={suffix[0]!r}"
        )
    return tuple(prefix) + tuple(suffix[1:])


def is_simple(path: Sequence[Node]) -> bool:
    """``True`` when the path has no repeated vertices."""
    return len(set(path)) == len(path)


def is_redundant(path: Sequence[Node]) -> bool:
    """``True`` when the path is *redundant* (Section 3).

    A redundant path is the concatenation ``p1 || p2`` of two simple paths
    (either part possibly empty).  Equivalently, there is a split index ``i``
    such that both ``p[:i+1]`` and ``p[i:]`` are simple.  Every simple path is
    redundant.

    The check runs in linear time: with ``a`` the length of the longest
    simple prefix and ``b`` the start of the longest simple suffix, a valid
    split exists iff ``b < a``.
    """
    path = tuple(path)
    if not path:
        return False
    # Longest simple prefix: stop at the first repeated node.
    seen = set()
    prefix_length = 0
    for node in path:
        if node in seen:
            break
        seen.add(node)
        prefix_length += 1
    if prefix_length == len(path):
        return True
    # Longest simple suffix: scan backwards until the first repetition.
    seen = set()
    suffix_start = len(path)
    for index in range(len(path) - 1, -1, -1):
        if path[index] in seen:
            break
        seen.add(path[index])
        suffix_start = index
    return suffix_start < prefix_length


def is_path_in_graph(graph: DiGraph, path: Sequence[Node]) -> bool:
    """``True`` when consecutive nodes of ``path`` are joined by edges of ``graph``.

    A single-node path only requires its node to be present.
    """
    path = tuple(path)
    if not path:
        return False
    if any(node not in graph for node in path):
        return False
    return all(graph.has_edge(u, v) for u, v in zip(path, path[1:]))


def path_intersects(path: Sequence[Node], nodes: Iterable[Node]) -> bool:
    """``True`` when ``path`` contains any node from ``nodes``."""
    node_set = set(nodes)
    return any(node in node_set for node in path)


def is_fully_contained(path: Sequence[Node], nodes: Iterable[Node]) -> bool:
    """``True`` when every node of ``path`` belongs to ``nodes`` (``p ⊆ C``)."""
    node_set = set(nodes)
    return all(node in node_set for node in path)


# ----------------------------------------------------------------------
# enumeration
# ----------------------------------------------------------------------
def iter_simple_paths_to(
    graph: DiGraph,
    target: Node,
    sources: Optional[Iterable[Node]] = None,
    max_length: Optional[int] = None,
) -> Iterator[Path]:
    """Enumerate all simple paths terminating at ``target``.

    Paths are enumerated by a backwards DFS from ``target`` so only paths that
    actually end at ``target`` are explored.  The trivial path ``⟨target⟩`` is
    included (the paper's fullness definition quantifies over all redundant
    paths with ``ter(p) = v``, which includes the node's own value path).

    Parameters
    ----------
    graph:
        The graph to enumerate in.
    target:
        Terminal node of every enumerated path.
    sources:
        Optional restriction on ``init(p)``; ``None`` means any initial node.
    max_length:
        Optional bound on the number of nodes per path.
    """
    if target not in graph:
        return
    allowed_sources = None if sources is None else set(sources)
    limit = graph.num_nodes if max_length is None else max_length

    # DFS growing the path backwards: ``suffix`` is a path ending at target.
    stack: List[Path] = [(target,)]
    while stack:
        suffix = stack.pop()
        first = suffix[0]
        if allowed_sources is None or first in allowed_sources:
            yield suffix
        if len(suffix) >= limit:
            continue
        for pred in graph.predecessors(first):
            if pred not in suffix:
                stack.append((pred,) + suffix)


def enumerate_simple_paths_to(
    graph: DiGraph,
    target: Node,
    sources: Optional[Iterable[Node]] = None,
    max_length: Optional[int] = None,
) -> List[Path]:
    """Materialized version of :func:`iter_simple_paths_to`."""
    return list(iter_simple_paths_to(graph, target, sources=sources, max_length=max_length))


def iter_redundant_paths_to(
    graph: DiGraph, target: Node, sources: Optional[Iterable[Node]] = None
) -> Iterator[Path]:
    """Enumerate all redundant paths (Section 3) terminating at ``target``.

    A redundant path is ``p1 || p2`` with both halves simple.  Every such path
    ending at ``target`` decomposes as a simple path ``p1`` from ``init`` to a
    pivot node ``z`` followed by a simple path ``p2`` from ``z`` to
    ``target``.  We enumerate simple paths into ``target`` (the ``p2`` part)
    and, for every pivot, all simple paths into the pivot (the ``p1`` part),
    de-duplicating results (a simple path admits many decompositions).

    .. warning::
       The number of redundant paths grows combinatorially with density; this
       exact enumeration is intended for the small graphs the faithful
       algorithm runs on (see DESIGN.md).
    """
    if target not in graph:
        return
    allowed_sources = None if sources is None else set(sources)
    seen: Set[Path] = set()

    suffixes = enumerate_simple_paths_to(graph, target)
    # Group the p1 candidates by their terminal node (the pivot).
    prefixes_by_pivot: Dict[Node, List[Path]] = {}

    def prefixes_into(pivot: Node) -> List[Path]:
        if pivot not in prefixes_by_pivot:
            prefixes_by_pivot[pivot] = enumerate_simple_paths_to(graph, pivot)
        return prefixes_by_pivot[pivot]

    for suffix in suffixes:
        pivot = suffix[0]
        for prefix in prefixes_into(pivot):
            candidate = concatenate(prefix, suffix)
            if allowed_sources is not None and candidate[0] not in allowed_sources:
                continue
            if candidate in seen:
                continue
            seen.add(candidate)
            yield candidate


def enumerate_redundant_paths_to(
    graph: DiGraph, target: Node, sources: Optional[Iterable[Node]] = None
) -> List[Path]:
    """Materialized version of :func:`iter_redundant_paths_to`."""
    return list(iter_redundant_paths_to(graph, target, sources=sources))


# ----------------------------------------------------------------------
# f-covers (Definition 4)
# ----------------------------------------------------------------------
def is_cover(paths: Iterable[Sequence[Node]], cover: Iterable[Node]) -> bool:
    """``True`` when every path of ``paths`` intersects ``cover``.

    The empty path set is covered by anything (vacuously), including the
    empty cover — this matches Definition 4 literally and is relied upon by
    the Completeness condition (an empty message set is trivially coverable,
    hence *not yet complete*).
    """
    cover_set = set(cover)
    return all(path_intersects(path, cover_set) for path in paths)


def find_f_cover(
    paths: Sequence[Sequence[Node]],
    f: int,
    candidate_nodes: Optional[Iterable[Node]] = None,
    forbidden: Optional[Iterable[Node]] = None,
) -> Optional[FrozenSet[Node]]:
    """Search for an f-cover of ``paths`` (Definition 4).

    Returns a cover of size at most ``f`` when one exists, else ``None``.

    Parameters
    ----------
    paths:
        The path set ``P``.
    f:
        Maximum cover size.
    candidate_nodes:
        Nodes allowed in the cover.  ``None`` means any node appearing on the
        paths (nodes not on any path are useless in a minimal cover).
    forbidden:
        Nodes that may never be part of the cover.  The algorithms pass the
        evaluating node (and source-component members) here; see DESIGN.md
        "f-covers never contain the evaluating node".

    Notes
    -----
    Hitting set is NP-hard in general; the exact search below enumerates
    candidate subsets of size ``≤ f`` which is fine for the ``f ∈ {0, 1, 2}``
    regimes the reproduction targets.  A greedy pre-check quickly accepts the
    common "single node hits everything" case.
    """
    if f < 0:
        raise ValueError(f"f must be non-negative, got {f}")
    paths = [tuple(p) for p in paths]
    forbidden_set = set(forbidden) if forbidden is not None else set()

    if not paths:
        return frozenset()

    if candidate_nodes is None:
        pool: Set[Node] = set()
        for path in paths:
            pool.update(path)
    else:
        pool = set(candidate_nodes)
    pool -= forbidden_set

    # A path that contains no candidate node can never be covered.
    path_sets = [set(p) & pool for p in paths]
    if any(not ps for ps in path_sets):
        return None
    if f == 0:
        return None  # non-empty path set cannot be covered by the empty set

    # Only nodes present on some path can help.
    useful = set()
    for ps in path_sets:
        useful.update(ps)

    # Fast path: f >= 1 and one node covers everything.
    common = set(path_sets[0])
    for ps in path_sets[1:]:
        common &= ps
        if not common:
            break
    if common:
        return frozenset([next(iter(sorted(common, key=repr)))])

    if f == 1:
        return None

    ordered = sorted(useful, key=repr)
    for size in range(2, min(f, len(ordered)) + 1):
        for combo in combinations(ordered, size):
            combo_set = set(combo)
            if all(ps & combo_set for ps in path_sets):
                return frozenset(combo)
    return None


def has_f_cover(
    paths: Sequence[Sequence[Node]],
    f: int,
    candidate_nodes: Optional[Iterable[Node]] = None,
    forbidden: Optional[Iterable[Node]] = None,
) -> bool:
    """``True`` when an f-cover of ``paths`` exists (see :func:`find_f_cover`)."""
    return find_f_cover(paths, f, candidate_nodes=candidate_nodes, forbidden=forbidden) is not None



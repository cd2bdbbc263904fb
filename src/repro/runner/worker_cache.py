"""Per-worker topology memoisation and the pre-fork warm-up.

Rebuilding a topology's precomputation per *cell* — the DiGraph, its shared
BitsetIndex, and above all the TopologyKnowledge redundant-path enumeration
— used to dominate sweep time (and made a 2-worker sharded run *slower*
than serial).  Cells are pure functions of their spec, so the expensive
objects only depend on (topology recipe, f, path policy): they are cached
process-globally and thereby once per worker.  SweepEngine groups
same-topology cells into the same pool chunk so each worker pays each
build at most once.  Caching is invisible in the results: cell outcomes
depend only on the cell's derived seed and the (deterministic) topology.

Graphs are constructed through the :data:`~repro.registry.TOPOLOGIES`
registry (via :meth:`~repro.runner.harness.TopologySpec.build`), so a
topology registered by third-party code is cached and warmed exactly like a
built-in family.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.algorithms.topology import TopologyKnowledge
from repro.graphs.bitset import BitsetIndex
from repro.graphs.digraph import DiGraph
from repro.registry import ALGORITHMS
from repro.runner.harness import GridSpec, SweepCell, TopologySpec

_GRAPH_CACHE: Dict[TopologySpec, DiGraph] = {}
_KNOWLEDGE_CACHE: Dict[Tuple[TopologySpec, int, str], TopologyKnowledge] = {}
#: Bound on either cache: big nightly grids sweep hundreds of topologies and
#: must not hold every graph alive; oldest entries are evicted first.
WORKER_CACHE_LIMIT = 64


def _bounded_put(cache: Dict, key, value) -> None:
    if len(cache) >= WORKER_CACHE_LIMIT:
        cache.pop(next(iter(cache)))  # insertion order: evict the oldest
    cache[key] = value


def cached_graph(spec: TopologySpec) -> DiGraph:
    """The worker-cached :class:`DiGraph` of a topology spec.

    The graph instance also carries its shared
    :class:`~repro.graphs.bitset.BitsetIndex`, so reach/SCC memos warm up
    across every cell of the same topology.
    """
    graph = _GRAPH_CACHE.get(spec)
    if graph is None:
        graph = spec.build()
        _bounded_put(_GRAPH_CACHE, spec, graph)
    return graph


def cached_topology_knowledge(
    spec: TopologySpec, f: int, path_policy: str
) -> TopologyKnowledge:
    """Worker-cached :class:`~repro.algorithms.topology.TopologyKnowledge`.

    Keyed on ``(topology recipe, f, path policy)`` — everything the
    precomputation depends on.  The knowledge shares the graph from
    :func:`cached_graph`, so its engine and reach caches are shared too.
    """
    key = (spec, f, path_policy)
    knowledge = _KNOWLEDGE_CACHE.get(key)
    if knowledge is None:
        knowledge = TopologyKnowledge(cached_graph(spec), f, path_policy)
        _bounded_put(_KNOWLEDGE_CACHE, key, knowledge)
    return knowledge


def warm_worker_caches(spec: GridSpec, cells: List[SweepCell]) -> None:
    """Pre-build every topology object the cells of ``spec`` will need.

    Called by :class:`~repro.runner.harness.SweepEngine` in the parent
    process *before* forking the worker pool: on fork-based platforms the
    children then share the graphs, bitmask indexes and TopologyKnowledge
    (including any eager per-algorithm machinery) via copy-on-write instead
    of each worker rebuilding them.  On spawn platforms the call is
    wasted-but-harmless parent work.

    What an algorithm needs warmed is the algorithm's business: each
    registered :class:`~repro.runner.algorithms.AlgorithmSpec` may declare a
    ``warm(spec, cell)`` hook, invoked once per distinct
    ``(algorithm, topology, f)`` combination.
    """
    # Cell-seeded topologies (``seed = "cell"``) sample a distinct graph per
    # cell; warming every sample in the parent would serialize the whole
    # sweep's graph construction, so only the first cell of each recipe is
    # warmed — enough to surface parameter errors before the fork and to
    # share one sample copy-on-write.  Deduplication keys use the
    # *unresolved* spec for exactly that reason.
    seen_graphs = set()
    seen_warms = set()
    for cell in cells:
        if cell.topology not in seen_graphs:
            seen_graphs.add(cell.topology)
            cached_graph(cell.resolved_topology)
        warm = ALGORITHMS.get(cell.algorithm).warm
        if warm is None:
            continue
        key = (cell.algorithm, cell.topology, cell.f)
        if key in seen_warms:
            continue
        seen_warms.add(key)
        warm(spec, cell)


def worker_cache_stats() -> Dict[str, int]:
    """Sizes of this process's topology caches (diagnostics)."""
    return {"graphs": len(_GRAPH_CACHE), "knowledge": len(_KNOWLEDGE_CACHE)}


def bitset_cache_stats() -> Dict[str, int]:
    """Aggregate bitset-memo sizes across the cached graphs (diagnostics).

    Counts only indexes that already exist (:meth:`BitsetIndex.peek` never
    builds one), so reading the stats cannot perturb what it measures.
    ``indexes`` is the number of cached graphs carrying a live index;
    ``reach_exclusions`` / ``source_components`` sum their memo sizes.
    """
    stats = {"indexes": 0, "reach_exclusions": 0, "source_components": 0}
    for graph in _GRAPH_CACHE.values():
        index = BitsetIndex.peek(graph)
        if index is None:
            continue
        stats["indexes"] += 1
        for key, size in index.memo_sizes().items():
            stats[key] += size
    return stats


def cache_snapshot() -> Dict[str, Dict[str, int]]:
    """Combined topology + bitset cache stats, as one JSON-ready object.

    The shape fabric workers embed in their ``workers/<id>.json`` status
    files, so ``fabric status`` can show how warm each worker's caches are
    without attaching to the process.
    """
    return {"worker": worker_cache_stats(), "bitset": bitset_cache_stats()}


def clear_worker_caches() -> None:
    """Drop the process-global topology caches (tests / cold-start benches)."""
    _GRAPH_CACHE.clear()
    _KNOWLEDGE_CACHE.clear()


__all__ = [
    "WORKER_CACHE_LIMIT",
    "bitset_cache_stats",
    "cache_snapshot",
    "cached_graph",
    "cached_topology_knowledge",
    "clear_worker_caches",
    "warm_worker_caches",
    "worker_cache_stats",
]

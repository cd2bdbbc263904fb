"""Shared topology precomputation for the Byzantine-Witness algorithm.

Algorithm 1 has every node reason about *candidate fault sets*: it runs one
parallel thread per ``F_v ⊆ V \\ {v}`` with ``|F_v| ≤ f``, checks fullness of
its message set against all redundant paths of ``G_{V \\ F_v}`` terminating
at itself, waits for COMPLETE announcements from every node of
``reach_v(F_v)`` over every simple path inside that reach set, and evaluates
the Completeness condition against source components ``S_{F_u, F_w}``.

All of those objects depend only on the graph and ``f`` — not on the
execution — so they are computed once per experiment by
:class:`TopologyKnowledge` and shared by every process (matching the paper's
assumption that nodes know the topology).  Reach sets and source components
come from the per-graph shared bitmask engine
(:class:`~repro.graphs.bitset.BitsetIndex`), whose own memos are keyed by
exclusion mask; this instance only keeps the decoded frozensets the hot
paths ask for, shared across every round and every candidate fault-set
pair.  The structure also exposes cost counters (number of threads,
required paths, source components) consumed by the message/thread-complexity
benchmark (experiment M1 in DESIGN.md).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterable, List, Optional, Tuple

from repro.algorithms.messagesets import PathTable
from repro.exceptions import ProtocolError
from repro.graphs.bitset import BitsetIndex, PathCodec
from repro.graphs.digraph import DiGraph
from repro.graphs.paths import (
    enumerate_redundant_paths_to,
    enumerate_simple_paths_to,
    is_fully_contained,
)
from repro.graphs.reach import reach_set
from repro.conditions.reach_conditions import iter_subsets

NodeId = Hashable
Path = Tuple[NodeId, ...]
FaultSet = FrozenSet[NodeId]
#: ``(key, fifo_key, first_key)``: one FIFO-Receive-All wait-list entry (see
#: :meth:`TopologyKnowledge.fifo_wait_list`), keyed by ``(origin, fault set,
#: path id)`` and ``(origin, path id)``.
FifoEntry = Tuple[
    Tuple[NodeId, FaultSet, int], Tuple[NodeId, int], Optional[Tuple[NodeId, FaultSet, int]]
]

#: Flooding policies supported by the algorithm.  ``"redundant"`` is the
#: faithful policy of the paper (Algorithm 4); ``"simple"`` floods only along
#: simple paths and exists as a documented cost/fidelity ablation.
PATH_POLICIES = ("redundant", "simple")

#: Safety bound on the per-experiment path memos (ids, policy verdicts,
#: relay targets).  Honest executions stay far below it — the path universe
#: is the graph's redundant paths, which the precomputation materializes
#: anyway — but a hostile behaviour forging unbounded fresh paths must not
#: grow a worker-cached knowledge instance without limit.  The honest
#: universe itself is always numbered, whatever its size.
PATH_MEMO_LIMIT = 1 << 17


class TopologyKnowledge:
    """Precomputed topological objects shared by every BW process.

    Parameters
    ----------
    graph:
        The communication graph ``G``.
    f:
        Fault bound.
    path_policy:
        ``"redundant"`` (paper-faithful) or ``"simple"`` (cheaper ablation).
    """

    def __init__(self, graph: DiGraph, f: int, path_policy: str = "redundant") -> None:
        if path_policy not in PATH_POLICIES:
            raise ProtocolError(f"unknown path policy {path_policy!r}; expected one of {PATH_POLICIES}")
        if f < 0:
            raise ProtocolError("the fault bound f must be non-negative")
        self.graph = graph
        self.f = f
        self.path_policy = path_policy
        self.nodes: List[NodeId] = sorted(graph.nodes, key=repr)

        #: shared bitmask engine (one per graph; also used by the condition
        #: checkers and by mask-level queries on the BW verification path).
        self.engine: BitsetIndex = BitsetIndex.for_graph(graph)

        #: shared path codec: graph nodes use the engine's bits, forged hops
        #: (Byzantine senders may invent them) intern beyond the graph.  One
        #: codec per experiment keeps member masks comparable across every
        #: process and every round.
        self.path_codec: PathCodec = PathCodec.for_engine(self.engine)

        #: every candidate fault set ``F ⊆ V`` with ``|F| ≤ f`` (used by Completeness).
        self.fault_sets: List[FaultSet] = list(iter_subsets(self.nodes, f))

        #: per node, the candidate sets ``F_v ⊆ V \ {v}`` of its parallel threads.
        self.fault_candidates: Dict[NodeId, List[FaultSet]] = {
            node: [fs for fs in self.fault_sets if node not in fs] for node in self.nodes
        }

        self._required_paths: Dict[Tuple[NodeId, FaultSet], FrozenSet[Path]] = {}
        self._required_path_ids: Dict[Tuple[NodeId, FaultSet], FrozenSet[int]] = {}
        self._required_index: Dict[NodeId, Dict[int, Tuple[FaultSet, ...]]] = {}
        #: path ↔ dense int, shared by every process of the experiment (see
        #: :meth:`path_table`); built on first use.
        self._path_table: Optional[PathTable] = None
        self._simple_paths_in_reach: Dict[Tuple[NodeId, FaultSet], Dict[NodeId, Tuple[Path, ...]]] = {}
        self._thread_plans: Dict[NodeId, Tuple[Tuple[FaultSet, int, int], ...]] = {}
        self._fifo_wait_lists: Dict[Tuple[NodeId, FaultSet], Tuple[FifoEntry, ...]] = {}
        self._node_order: Dict[FrozenSet[NodeId], Tuple[NodeId, ...]] = {}
        #: per-path hot record ``path → [policy verdict, member mask, path
        #: id, value relay targets, FIFO relay targets]`` (Algorithm 4's
        #: per-message and per-neighbour policy tests, and the simple-path
        #: extension rule of the COMPLETE flood).  Every field depends only
        #: on the path, the graph and the policy — all fixed per instance —
        #: so every process, round, flood and (through the sweep worker
        #: cache) cell sharing this knowledge reuses the same records.  Both
        #: relay-target slots are filled lazily by the path's terminal node.
        self.path_info: Dict[Path, List] = {}
        #: decoded ``reach_v(F)`` per ``(v, F)`` and ``S_{F1,F2}`` per union
        #: mask — Completeness asks for a source component, and the crash
        #: baseline for a reach set, on every delivery.
        self._reach_sets: Dict[Tuple[NodeId, FaultSet], FrozenSet[NodeId]] = {}
        self._source_components: Dict[int, FrozenSet[NodeId]] = {}

    # ------------------------------------------------------------------
    # lazily computed, memoised queries
    # ------------------------------------------------------------------
    def required_paths(self, node: NodeId, fault_set: FaultSet) -> FrozenSet[Path]:
        """All flooding paths of ``G_{V \\ F}`` terminating at ``node``.

        This is the path set the fullness check of the Maximal-Consistency
        condition compares against (Definition 9).  Redundant paths under the
        faithful policy, simple paths under the ablation policy; the trivial
        path ``(node,)`` is always included (a node knows its own value).
        """
        key = (node, frozenset(fault_set))
        if key not in self._required_paths:
            subgraph = self.graph.exclude_nodes(key[1])
            if self.path_policy == "redundant":
                paths = enumerate_redundant_paths_to(subgraph, node)
            else:
                paths = enumerate_simple_paths_to(subgraph, node)
            self._required_paths[key] = frozenset(paths) | {(node,)}
        return self._required_paths[key]

    def path_table(self) -> PathTable:
        """The experiment's dense path numbering, shared by every process.

        The honest path universe — the union of :meth:`required_paths`
        ``(v, ∅)`` over every node, which contains every required path of
        every thread — is numbered in lexicographic tuple order, so the
        message sets of Filter-and-Average sort on ints (see
        :mod:`repro.algorithms.messagesets`).  Forged paths intern beyond
        that range, up to :data:`PATH_MEMO_LIMIT` paths in all.  Built on
        first use, normally from :meth:`required_index` when a BW process
        sets up its first round.
        """
        table = self._path_table
        if table is None:
            universe = set()
            for node in self.nodes:
                universe.update(self.required_paths(node, frozenset()))
            table = self._path_table = PathTable.lexicographic(universe, PATH_MEMO_LIMIT)
        return table

    def path_id(self, path: Path) -> int:
        """Id of ``path`` in :meth:`path_table`.

        Honest paths have their lexicographic id; a forged path is interned
        on first sight.  Past :data:`PATH_MEMO_LIMIT` paths a new one is not
        interned and maps to ``-1`` (never a required id); a
        :class:`~repro.algorithms.messagesets.MessageSet` then numbers it
        privately.
        """
        path_id = self.path_table().intern(path)
        return -1 if path_id is None else path_id

    def required_path_ids(self, node: NodeId, fault_set: FaultSet) -> FrozenSet[int]:
        """:meth:`required_paths` as a frozen set of path ids.

        The Maximal-Consistency fullness check (Definition 9) runs once per
        received message per thread; integer membership avoids re-hashing
        path tuples in that innermost loop.
        """
        key = (node, frozenset(fault_set))
        cached = self._required_path_ids.get(key)
        if cached is None:
            ids = self.path_table().ids
            cached = frozenset(ids[path] for path in self.required_paths(node, key[1]))
            self._required_path_ids[key] = cached
        return cached

    def required_index(self, node: NodeId) -> Dict[int, Tuple[FaultSet, ...]]:
        """Reverse fullness index: path id → the candidate fault sets of
        ``node`` whose required-path set contains it.

        The per-message fullness update of the Maximal-Consistency condition
        walks this list (typically shorter than the thread count) instead of
        testing the path against every thread's required set.
        """
        cached = self._required_index.get(node)
        if cached is None:
            mapping: Dict[int, List[FaultSet]] = {}
            for fault_set in self.fault_candidates[node]:
                for path_id in self.required_path_ids(node, fault_set):
                    entry = mapping.get(path_id)
                    if entry is None:
                        mapping[path_id] = [fault_set]
                    else:
                        entry.append(fault_set)
            cached = {path_id: tuple(entry) for path_id, entry in mapping.items()}
            self._required_index[node] = cached
        return cached

    def reach(self, node: NodeId, fault_set: FaultSet) -> FrozenSet[NodeId]:
        """``reach_node(F)`` (Definition 2), memoised per ``(node, F)``."""
        key = (node, frozenset(fault_set))
        reach = self._reach_sets.get(key)
        if reach is None:
            reach = self._reach_sets[key] = reach_set(self.graph, node, key[1])
        return reach

    def reach_mask(self, node: NodeId, fault_set: Iterable[NodeId]) -> int:
        """``reach_node(F)`` as a bitmask of the shared engine (hot-path
        variant used by the Verify containment checks)."""
        excluded_mask = self.engine.mask_of(fault_set, ignore_missing=True)
        return self.engine.reach_mask(node, excluded_mask)

    def simple_paths_within_reach(
        self, node: NodeId, fault_set: FaultSet
    ) -> Dict[NodeId, Tuple[Path, ...]]:
        """For every ``c ∈ reach_node(F)``, the simple ``(c, node)``-paths fully
        inside ``reach_node(F)`` — the paths the FIFO-Receive-All condition
        (Algorithm 1 line 12) waits on.  Origins come in :attr:`nodes` order,
        so iterating the result never depends on string hashing."""
        key = (node, frozenset(fault_set))
        if key not in self._simple_paths_in_reach:
            reach = self.reach(node, fault_set)
            subgraph = self.graph.induced_subgraph(reach)
            per_origin: Dict[NodeId, List[Path]] = {c: [] for c in self.in_node_order(reach)}
            for path in enumerate_simple_paths_to(subgraph, node):
                if is_fully_contained(path, reach):
                    per_origin.setdefault(path[0], []).append(path)
            self._simple_paths_in_reach[key] = {
                origin: tuple(sorted(paths)) for origin, paths in per_origin.items()
            }
        return self._simple_paths_in_reach[key]

    def thread_plan(self, node: NodeId) -> Tuple[Tuple[FaultSet, int, int], ...]:
        """``(fault_set, fault_mask, required_count)`` for each of ``node``'s
        parallel threads, in :attr:`fault_candidates` order.

        ``fault_mask`` is the candidate set as an engine bitmask and
        ``required_count`` the size of its required-path set (Definition 9's
        fullness target).  Both depend on the node and the candidate alone,
        so a BW process builds every round's thread trackers from this one
        memoised tuple instead of re-deriving them per round.
        """
        plan = self._thread_plans.get(node)
        if plan is None:
            mask_of = self.engine.mask_of
            plan = tuple(
                (fault_set, mask_of(fault_set), len(self.required_path_ids(node, fault_set)))
                for fault_set in self.fault_candidates[node]
            )
            self._thread_plans[node] = plan
        return plan

    def fifo_wait_list(self, node: NodeId, fault_set: FaultSet) -> Tuple[FifoEntry, ...]:
        """The FIFO-Receive-All wait list (Algorithm 1 line 12) of ``node``'s
        thread for ``fault_set``, flattened for a resumable scan.

        One ``(key, fifo_key, first_key)`` entry per simple path of
        :meth:`simple_paths_within_reach` whose origin is not ``node`` (the
        node's own entry is met by the COMPLETE it sends before any scan),
        with the path as its id in :meth:`path_table` (a simple path is
        honest, so it always has one): ``key = (origin, fault_set, path id)``
        indexes a round's stored announcements, ``fifo_key = (origin, path
        id)`` the FIFO counter prefix, and ``first_key`` is the ``key`` of
        the origin's first path — the announcement every later path of that
        origin must match (``None`` on the first path itself).  A receipt
        over a path without an id keys it by its tuple instead, which never
        matches an entry.  The tuple is immutable and memoised, so every
        round and every cell sharing this knowledge scans the same object; a
        thread keeps only its own scan position.
        """
        fault_set = frozenset(fault_set)
        key = (node, fault_set)
        entries = self._fifo_wait_lists.get(key)
        if entries is None:
            ids = self.path_table().ids
            flat: List[FifoEntry] = []
            for origin, paths in self.simple_paths_within_reach(node, fault_set).items():
                if origin == node:
                    continue
                first_key = None
                for path in paths:
                    path_id = ids[path]
                    entry_key = (origin, fault_set, path_id)
                    flat.append((entry_key, (origin, path_id), first_key))
                    if first_key is None:
                        first_key = entry_key
            entries = self._fifo_wait_lists[key] = tuple(flat)
        return entries

    def in_node_order(self, members: FrozenSet[NodeId]) -> Tuple[NodeId, ...]:
        """The graph nodes of ``members`` in :attr:`nodes` (``repr``-sorted)
        order, memoised per set (up to :data:`PATH_MEMO_LIMIT` sets).

        Reach sets and source components are frozensets, whose iteration
        order follows string hashing (``PYTHONHASHSEED``); walking them in
        this order instead keeps every scan and early exit — and so the
        work a run does — the same in every interpreter.
        """
        memo = self._node_order
        ordered = memo.get(members)
        if ordered is None:
            ordered = tuple(node for node in self.nodes if node in members)
            if len(memo) < PATH_MEMO_LIMIT:
                memo[members] = ordered
        return ordered

    def source_component(self, f1: Iterable[NodeId], f2: Iterable[NodeId] = ()) -> FrozenSet[NodeId]:
        """``S_{F1, F2}`` (Definition 6), memoised on the union's mask."""
        engine = self.engine
        key = engine.mask_of(f1, ignore_missing=True) | engine.mask_of(f2, ignore_missing=True)
        component = self._source_components.get(key)
        if component is None:
            component = engine.nodes_of(engine.source_component_mask(key))
            self._source_components[key] = component
        return component

    # ------------------------------------------------------------------
    # cost accounting (benchmark M1)
    # ------------------------------------------------------------------
    def thread_count(self, node: NodeId) -> int:
        """Number of parallel threads node ``node`` runs (candidate fault sets)."""
        return len(self.fault_candidates[node])

    def total_required_paths(self, node: NodeId) -> int:
        """Total number of required flooding paths across all of a node's threads."""
        return sum(
            len(self.required_paths(node, fault_set))
            for fault_set in self.fault_candidates[node]
        )

    def precompute_all(self) -> Dict[str, int]:
        """Force every memoised structure and return aggregate size counters.

        Called by experiments that want the precomputation excluded from the
        timed section, and by the complexity benchmark that reports the
        counters themselves.
        """
        total_paths = 0
        total_threads = 0
        for node in self.nodes:
            total_threads += self.thread_count(node)
            for fault_set in self.fault_candidates[node]:
                total_paths += len(self.required_paths(node, fault_set))
                self.simple_paths_within_reach(node, fault_set)
        for f1 in self.fault_sets:
            for f2 in self.fault_sets:
                self.source_component(f1, f2)
        return {
            "nodes": len(self.nodes),
            "threads": total_threads,
            "required_paths": total_paths,
            "source_components": len(self._source_components),
        }

    def __repr__(self) -> str:
        return (
            f"<TopologyKnowledge n={len(self.nodes)} f={self.f} "
            f"policy={self.path_policy!r} fault_sets={len(self.fault_sets)}>"
        )

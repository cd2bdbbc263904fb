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
assumption that nodes know the topology).

**One path enumeration per node.**  Every path object of a thread is a
subset of its node's ``F = ∅`` path set: a policy path of ``G`` that avoids
``F`` is a policy path of ``G_{V \\ F}``, and a simple path is a policy path
under both policies.  So the policy paths ending at each node are enumerated
once, in ``G`` itself, each with its member mask; they are numbered in the
shared lexicographic :class:`~repro.algorithms.messagesets.PathTable`, and
each node keeps its ``(path id, member mask)`` list.  Every ``(node, F)``
object is a mask filter of that list: the required paths (fullness, the
reverse index and the thread plan) are the masks missing ``F``, and the
FIFO-Receive-All paths are the masks with one bit per hop inside
``reach_node(F)``'s.  BW's per-path records take an honest path's mask from
the same pass (:attr:`TopologyKnowledge.path_masks`).

Reach sets and source components come from the per-graph shared bitmask
engine (:class:`~repro.graphs.bitset.BitsetIndex`), whose own memos are
keyed by exclusion mask; this instance only keeps the decoded frozensets the
hot paths ask for, shared across every round and every candidate fault-set
pair.  The structure also exposes cost counters (number of threads,
required paths, source components) consumed by the message/thread-complexity
benchmark (experiment M1 in DESIGN.md).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterable, List, Optional, Tuple

from repro.algorithms.messagesets import PathTable
from repro.exceptions import ProtocolError
from repro.graphs.bitset import BitsetIndex, PathCodec, iter_bits
from repro.graphs.digraph import DiGraph
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
        self._required_index: Dict[NodeId, Dict[int, Tuple[FaultSet, ...]]] = {}
        #: path ↔ dense int, shared by every process of the experiment (see
        #: :meth:`path_table`); built on first use, with the per-node
        #: ``(path id, member mask)`` lists of :meth:`_paths_to` and the
        #: member mask of every honest path id.
        self._path_table: Optional[PathTable] = None
        self._node_paths: Dict[NodeId, Tuple[Tuple[int, int], ...]] = {}
        self.path_masks: List[int] = []
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
    # the per-node path enumeration and its mask filters
    # ------------------------------------------------------------------
    def _policy_paths(self, node: NodeId) -> List[Tuple[Path, int]]:
        """Every policy path of ``G`` ending at ``node`` (the trivial path
        included), each with its member mask in the engine's bits.

        One backward DFS from ``node``; both policies keep every suffix of
        an admitted path, so each path is reached from its suffix exactly
        once.  A simple path may be extended by any predecessor that is not
        on it.  A redundant path ``p1 || p2`` (Section 3) grows at the front
        of ``p1``, so ``head`` is the member mask of ``p1``: the hops before
        the longest simple suffix, and its first hop (the pivot).  A
        predecessor outside the path keeps it simple, or extends ``p1``; one
        on the path but not in ``head`` starts or extends ``p1``; one in
        ``head`` would repeat a hop of ``p1``.
        """
        engine = self.engine
        nodes = engine.nodes
        predecessors = [
            [(nodes[j], 1 << j) for j in iter_bits(pred_mask)] for pred_mask in engine.pred_masks
        ]
        index = engine.index
        redundant = self.path_policy == "redundant"
        start = 1 << index[node]
        found: List[Tuple[Path, int]] = []
        # (path, member mask, p1's mask, whether the path is simple)
        stack = [((node,), start, start, True)]
        while stack:
            path, mask, head, simple = stack.pop()
            found.append((path, mask))
            for pred, bit in predecessors[index[path[0]]]:
                if not mask & bit:
                    grown = bit if simple else head | bit
                    stack.append(((pred,) + path, mask | bit, grown, simple))
                elif redundant and not head & bit:
                    stack.append(((pred,) + path, mask, head | bit, False))
        return found

    def path_table(self) -> PathTable:
        """The experiment's dense path numbering, shared by every process.

        The honest path universe — every policy path of ``G``, which
        contains every required path of every thread — is enumerated once
        per node (:meth:`_policy_paths`) and numbered in lexicographic tuple
        order, so the message sets of Filter-and-Average sort on ints (see
        :mod:`repro.algorithms.messagesets`).  :attr:`path_masks` keeps each
        honest path's member mask beside its id.  Forged paths intern beyond
        that range, up to :data:`PATH_MEMO_LIMIT` paths in all.  Built on
        first use, normally from :meth:`required_index` when a BW process
        sets up its first round.
        """
        table = self._path_table
        if table is None:
            per_node = {node: self._policy_paths(node) for node in self.nodes}
            table = PathTable.lexicographic(
                (path for found in per_node.values() for path, _ in found), PATH_MEMO_LIMIT
            )
            ids = table.ids
            masks = [0] * len(table)
            for node, found in per_node.items():
                pairs = sorted((ids[path], mask) for path, mask in found)
                for path_id, mask in pairs:
                    masks[path_id] = mask
                self._node_paths[node] = tuple(pairs)
            self.path_masks = masks
            self._path_table = table
        return table

    def _paths_to(self, node: NodeId) -> Tuple[Tuple[int, int], ...]:
        """``(path id, member mask)`` of every policy path of ``G`` ending at
        ``node``, in id order: the one enumeration every ``(node, F)``
        object below filters."""
        self.path_table()
        return self._node_paths[node]

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
        """Ids of all flooding paths of ``G_{V \\ F}`` terminating at ``node``.

        This is the path set the fullness check of the Maximal-Consistency
        condition compares against (Definition 9).  Redundant paths under the
        faithful policy, simple paths under the ablation policy; the trivial
        path ``(node,)`` is always included (a node knows its own value).
        A policy path of ``G`` avoiding ``F`` is one of ``G_{V \\ F}``, so
        these are the paths of :meth:`_paths_to` whose mask misses ``F``.
        """
        fault_mask = self.engine.mask_of(fault_set, ignore_missing=True)
        ids = frozenset(path_id for path_id, mask in self._paths_to(node) if not mask & fault_mask)
        return ids | {self._path_table.ids[(node,)]}

    def required_paths(self, node: NodeId, fault_set: FaultSet) -> FrozenSet[Path]:
        """:meth:`required_path_ids` as path tuples, memoised per ``(node, F)``."""
        key = (node, frozenset(fault_set))
        paths = self._required_paths.get(key)
        if paths is None:
            table_paths = self.path_table().paths
            paths = self._required_paths[key] = frozenset(
                table_paths[path_id] for path_id in self.required_path_ids(node, key[1])
            )
        return paths

    def required_index(self, node: NodeId) -> Dict[int, Tuple[FaultSet, ...]]:
        """Reverse fullness index: path id → the candidate fault sets of
        ``node`` whose required-path set contains it.

        The per-message fullness update of the Maximal-Consistency condition
        walks this list (typically shorter than the thread count) instead of
        testing the path against every thread's required set.  The list
        depends on the path's member mask alone, so paths sharing a mask
        share one tuple.
        """
        cached = self._required_index.get(node)
        if cached is None:
            mask_of = self.engine.mask_of
            candidates = [
                (fault_set, mask_of(fault_set)) for fault_set in self.fault_candidates[node]
            ]
            by_mask: Dict[int, Tuple[FaultSet, ...]] = {}
            cached = {}
            for path_id, mask in self._paths_to(node):
                required_by = by_mask.get(mask)
                if required_by is None:
                    required_by = by_mask[mask] = tuple(
                        fault_set for fault_set, fault_mask in candidates if not mask & fault_mask
                    )
                cached[path_id] = required_by
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
        so iterating the result never depends on string hashing; each
        origin's paths come in path-id order, which is lexicographic order
        (``repr`` order in a table over incomparable node types, see
        :meth:`~repro.algorithms.messagesets.PathTable.lexicographic`).

        Simple paths are policy paths under both policies, so these are the
        paths of :meth:`_paths_to` with one mask bit per hop and the mask
        inside the reach set's.
        """
        reach = self.reach(node, fault_set)
        outside = ~self.engine.mask_of(reach)
        paths = self.path_table().paths
        per_origin: Dict[NodeId, List[Path]] = {c: [] for c in self.in_node_order(reach)}
        for path_id, mask in self._paths_to(node):
            if not mask & outside:
                path = paths[path_id]
                if mask.bit_count() == len(path):
                    per_origin[path[0]].append(path)
        return {origin: tuple(found) for origin, found in per_origin.items()}

    def thread_plan(self, node: NodeId) -> Tuple[Tuple[FaultSet, int, int], ...]:
        """``(fault_set, fault_mask, required_count)`` for each of ``node``'s
        parallel threads, in :attr:`fault_candidates` order.

        ``fault_mask`` is the candidate set as an engine bitmask and
        ``required_count`` the size of its required-path set (Definition 9's
        fullness target), counted over the distinct path masks of
        :meth:`_paths_to`.  Both depend on the node and the candidate
        alone, so a BW process builds every round's thread trackers from
        this one memoised tuple instead of re-deriving them per round.
        """
        plan = self._thread_plans.get(node)
        if plan is None:
            mask_counts: Dict[int, int] = {}
            for _, mask in self._paths_to(node):
                mask_counts[mask] = mask_counts.get(mask, 0) + 1
            mask_of = self.engine.mask_of
            plan = []
            for fault_set in self.fault_candidates[node]:
                fault_mask = mask_of(fault_set)
                count = sum(n for mask, n in mask_counts.items() if not mask & fault_mask)
                plan.append((fault_set, fault_mask, count))
            plan = self._thread_plans[node] = tuple(plan)
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
        return sum(required_count for _, _, required_count in self.thread_plan(node))

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
            total_paths += self.total_required_paths(node)
            self.required_index(node)
            for fault_set in self.fault_candidates[node]:
                self.fifo_wait_list(node, fault_set)
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

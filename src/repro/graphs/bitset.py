"""Shared integer-bitmask engine for reach sets, SCCs and source components.

Every condition checker of the paper and the Byzantine-Witness verification
path reduce to the same primitive: reach sets / source components evaluated
under candidate fault sets, over an enumeration that is exponential in ``f``.
:class:`BitsetIndex` is the one substrate they all share:

* a stable node ↔ bit mapping (insertion order of :attr:`DiGraph.nodes`),
* predecessor / successor adjacency masks,
* mask ↔ ``frozenset`` codecs (:meth:`mask_of` / :meth:`nodes_of`),
* fixed-point backward reachability (:meth:`reach_masks`, Definition 2),
* forward reachability in the *reduced graph* of Definition 5
  (:meth:`descendant_masks` with a ``blocked_mask``),
* the source component of Definition 6 (:meth:`source_component_mask`),
* strongly connected components via a bitmask iterative Tarjan
  (:meth:`scc_masks`).

Dense-bitset transitive closure is the standard trick for
transitive-closure-heavy structural analysis (cppdep / APGL use the same
representation); on the graph sizes the paper discusses (``n ≤ 64``) every
node set fits one machine word and set algebra becomes single integer ops.

Sharing
-------
:meth:`BitsetIndex.for_graph` returns a per-graph shared instance so that all
checkers, caches and the BW verification path operating on the same
:class:`DiGraph` reuse one index (and therefore one adjacency encoding).  The
instance is invalidated automatically when the graph is mutated (tracked via
the graph's mutation counter).

Multiprocessing
---------------
Indexes serialise to a compact picklable payload (:meth:`to_payload` /
:meth:`from_payload`) so the ``parallel=N`` condition sweeps can ship the
adjacency masks — not the whole graph object — to worker processes.

Backends
--------
The *computation* behind the mask algebra is pluggable: every closure / SCC /
source-component / f-cover query routes through a backend resolved from the
:data:`~repro.registry.BITSET_BACKENDS` registry (``python`` — the inlined
big-int kernels below — and ``numpy`` — batched uint64 mask arrays with a
vectorized Warshall closure, see :mod:`repro.graphs.bitset_numpy`).  The
backend interface, :class:`BitsetBackend`, is defined in this module
next to the reference kernels it defaults to.  Selection
is automatic per graph size with a ``REPRO_BITSET_BACKEND`` override; see
:func:`repro.graphs.bitset_backends.get_backend`.  Backends are required to
produce *identical* masks and verdicts — they change how fast an answer
arrives, never the answer — which is what keeps sweep artifacts byte-identical
across backends.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.graphs.digraph import DiGraph, Node
from repro.registry import BITSET_BACKENDS

try:  # pragma: no cover - trivial dispatch
    _popcount = int.bit_count  # Python >= 3.10
except AttributeError:  # pragma: no cover - exercised only on Python 3.9
    def _popcount(mask: int) -> int:
        return bin(mask).count("1")


def popcount(mask: int) -> int:
    """Number of set bits in ``mask`` (portable across Python 3.9–3.12)."""
    return _popcount(mask)


def iter_bits(mask: int) -> Iterable[int]:
    """Yield the indices of the set bits of ``mask`` (lowest first)."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def candidate_coverages(masks: Sequence[int], union: int) -> List[int]:
    """Per-candidate *coverage bitsets* over path indices.

    For every set bit ``b`` of ``union`` (a candidate cover node), the
    returned list holds — in ascending bit order — the set of paths node
    ``b`` lies on, encoded as an integer over ``range(len(masks))``.  The
    f-cover search runs entirely on these: a candidate set covers the paths
    iff the OR of its coverages is the all-paths mask.
    """
    coverage: Dict[int, int] = {bit: 0 for bit in iter_bits(union)}
    for i, mask in enumerate(masks):
        path_bit = 1 << i
        while mask:
            low = mask & -mask
            mask ^= low
            coverage[low.bit_length() - 1] |= path_bit
    return list(coverage.values())


def prune_dominated_coverages(coverages: Sequence[int]) -> List[int]:
    """Drop candidates whose coverage is a subset of another candidate's.

    A dominated candidate can always be replaced by its dominator inside any
    cover, so pruning preserves f-cover *existence* exactly (single-node
    covers must be tested before pruning: a dominator pair collapsing to one
    node is precisely the single-node case).  Equal coverages keep their
    first representative.
    """
    kept: List[int] = []
    for i, cov in enumerate(coverages):
        dominated = False
        for j, other in enumerate(coverages):
            if j == i:
                continue
            if cov | other == other and (cov != other or j < i):
                dominated = True
                break
        if not dominated:
            kept.append(cov)
    return kept


def has_f_cover_masks(masks: Sequence[int], f: int) -> bool:
    """Existence of an f-cover (Definition 4) over mask-encoded path sets.

    ``masks[i]`` is the member mask of path ``i`` *restricted to candidate
    cover nodes* (forbidden nodes already cleared by the caller).  Mirrors
    :func:`repro.graphs.paths.find_f_cover` exactly:

    * the empty path set is vacuously coverable;
    * a path with no candidate member can never be covered;
    * ``f = 0`` cannot cover a non-empty path set;
    * one node covers everything iff some candidate lies on every path;
    * larger covers are an exact search over candidate combinations
      (``f ≤ 2`` in every workload the paper discusses), run on coverage
      bitsets over path indices with dominated candidates pruned first
      (see :func:`prune_dominated_coverages` — existence-preserving).
    """
    if not masks:
        return True
    union = 0
    for mask in masks:
        if not mask:
            return False
        union |= mask
    if f == 0:
        return False
    all_paths = (1 << len(masks)) - 1
    coverages = candidate_coverages(masks, union)
    for cov in coverages:
        if cov == all_paths:
            return True
    if f == 1:
        return False
    coverages = prune_dominated_coverages(coverages)
    for size in range(2, min(f, len(coverages)) + 1):
        for combo in combinations(coverages, size):
            acc = 0
            for cov in combo:
                acc |= cov
            if acc == all_paths:
                return True
    return False


def any_f_cover_masks(groups: Sequence[Sequence[int]], f: int) -> bool:
    """``True`` when *any* group of path masks admits an f-cover.

    The batched form of :func:`has_f_cover_masks` used by the per-origin
    callers (Completeness evaluates one group per source-component node):
    collecting the groups first lets the numpy backend test every origin's
    candidate combinations in one vectorized sweep instead of a Python loop
    per origin.  Dispatches on the widest mask seen (the graph-size proxy);
    the pure-python path keeps its per-group early exit.
    """
    max_bits = 0
    for group in groups:
        for mask in group:
            bits = mask.bit_length()
            if bits > max_bits:
                max_bits = bits
    # lazy: bitset_backends imports this module (cycle)
    from repro.graphs.bitset_backends import get_backend

    return get_backend(max_bits).any_f_cover(groups, f)


def find_disjoint_pair(masks: Sequence[int]) -> Optional[Tuple[int, int]]:
    """First pair ``(a, b)``, ``a < b``, with ``masks[a] & masks[b] == 0``.

    "First" means lexicographically smallest in the nested-loop enumeration
    order — the contract every backend must honour so that violation
    witnesses (and ``checks_performed`` accounting derived from the pair
    position) are identical across backends.
    """
    for a in range(len(masks)):
        mask_a = masks[a]
        for b in range(a + 1, len(masks)):
            if mask_a & masks[b] == 0:
                return a, b
    return None


def _closure_masks(adj: Sequence[int], allowed_mask: int, n: int) -> List[int]:
    """Reflexive-transitive closure of the digraph given by adjacency masks.

    ``closure[i]`` is the set of bits reachable from ``i`` by following
    ``adj`` edges inside ``allowed_mask`` (always including ``i`` itself);
    entries outside ``allowed_mask`` are 0.  Implemented as a single-pass
    bitmask Tarjan: components come out in reverse topological order, so by
    the time a component is emitted the closures of all its successors are
    known and one OR-accumulation per component finishes the job — no
    repeated fixed-point sweeps.  Bit loops are inlined (no generator calls)
    because this is the innermost kernel of every reach / source-component
    query.
    """
    closure = [0] * n
    indices: Dict[int, int] = {}
    lowlink: Dict[int, int] = {}
    on_stack_mask = 0
    stack: List[int] = []
    counter = 0

    roots = allowed_mask
    while roots:
        root_bit = roots & -roots
        roots ^= root_bit
        root = root_bit.bit_length() - 1
        if root in indices:
            continue
        indices[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack_mask |= root_bit
        work: List[Tuple[int, int]] = [(root, adj[root] & allowed_mask)]
        while work:
            node, remaining = work.pop()
            advanced = False
            while remaining:
                low = remaining & -remaining
                remaining ^= low
                nxt = low.bit_length() - 1
                if nxt not in indices:
                    work.append((node, remaining))
                    indices[nxt] = lowlink[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    on_stack_mask |= low
                    work.append((nxt, adj[nxt] & allowed_mask))
                    advanced = True
                    break
                if on_stack_mask & low and indices[nxt] < lowlink[node]:
                    lowlink[node] = indices[nxt]
            if advanced:
                continue
            if work:
                parent = work[-1][0]
                if lowlink[node] < lowlink[parent]:
                    lowlink[parent] = lowlink[node]
            if lowlink[node] == indices[node]:
                component = 0
                while True:
                    member = stack.pop()
                    member_bit = 1 << member
                    on_stack_mask &= ~member_bit
                    component |= member_bit
                    if member == node:
                        break
                successors = 0
                bits = component
                while bits:
                    low = bits & -bits
                    bits ^= low
                    successors |= adj[low.bit_length() - 1]
                successors &= allowed_mask & ~component
                reach = component
                while successors:
                    low = successors & -successors
                    successors ^= low
                    reach |= closure[low.bit_length() - 1]
                bits = component
                while bits:
                    low = bits & -bits
                    bits ^= low
                    closure[low.bit_length() - 1] = reach
    return closure


def _tarjan_scc_masks(succ_masks: Sequence[int], allowed_mask: int) -> List[int]:
    """SCCs of the subgraph induced on ``allowed_mask`` (bitmask Tarjan).

    Returned in reverse topological order of the condensation (a component
    is emitted only after every component it can reach), matching
    :meth:`DiGraph.strongly_connected_components`.
    """
    indices: Dict[int, int] = {}
    lowlinks: Dict[int, int] = {}
    on_stack = 0
    stack: List[int] = []
    components: List[int] = []
    counter = 0

    for root in iter_bits(allowed_mask):
        if root in indices:
            continue
        work: List[Tuple[int, "Iterable[int]"]] = [
            (root, iter_bits(succ_masks[root] & allowed_mask))
        ]
        indices[root] = lowlinks[root] = counter
        counter += 1
        stack.append(root)
        on_stack |= 1 << root
        while work:
            node, successors = work[-1]
            advanced = False
            for nxt in successors:
                if nxt not in indices:
                    indices[nxt] = lowlinks[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    on_stack |= 1 << nxt
                    work.append((nxt, iter_bits(succ_masks[nxt] & allowed_mask)))
                    advanced = True
                    break
                if on_stack & (1 << nxt):
                    lowlinks[node] = min(lowlinks[node], indices[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlinks[parent] = min(lowlinks[parent], lowlinks[node])
            if lowlinks[node] == indices[node]:
                component = 0
                while True:
                    member = stack.pop()
                    on_stack &= ~(1 << member)
                    component |= 1 << member
                    if member == node:
                        break
                components.append(component)
    return components


def _source_component_scan(
    succ_masks: Sequence[int], pred_masks: Sequence[int], blocked_mask: int, full_mask: int
) -> int:
    """Mother-vertex scan: O(V + E) masked BFS waves instead of an all-pairs
    closure.

    Sweep the vertices in bit order, forward-BFS from each not-yet-seen one;
    only the last start can reach everything (any earlier full-reaching
    vertex would have absorbed every later start into its wave).  If that
    candidate's descendants are all of ``V``, the component is exactly the
    candidate plus everything that reaches it (one backward wave) — each
    such node reaches all of ``V`` through the candidate.
    """
    if full_mask == 0:
        return 0
    visited = 0
    candidate_bit = 0
    candidate_desc = 0
    starts = full_mask
    while starts:
        start_bit = starts & -starts
        starts ^= start_bit
        if visited & start_bit:
            continue
        seen = start_bit
        frontier = start_bit
        while True:
            expand = frontier & ~blocked_mask
            nxt = 0
            while expand:
                low = expand & -expand
                expand ^= low
                nxt |= succ_masks[low.bit_length() - 1]
            frontier = nxt & ~seen
            if not frontier:
                break
            seen |= frontier
        visited |= seen
        candidate_bit = start_bit
        candidate_desc = seen
    if candidate_desc != full_mask:
        return 0
    members = candidate_bit
    frontier = candidate_bit
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            nxt |= pred_masks[low.bit_length() - 1]
        frontier = nxt & ~blocked_mask & ~members
        members |= frontier
    return members


# ----------------------------------------------------------------------
# computation backend interface
# ----------------------------------------------------------------------
class BitsetBackend:
    """Interface every bitset computation backend implements.

    Arguments and results are plain Python ints (bitmasks) and sequences
    thereof — conversion to any internal representation is the backend's
    private business, so backends are freely interchangeable mid-process.
    The one exception is :meth:`distinct_reach_masks`, which takes the
    :class:`BitsetIndex` itself so the reference implementation can serve
    rows from the index's memo.  Default implementations are the reference
    python kernels above; a backend overrides whichever queries it can
    accelerate.

    The interface lives here, next to the reference kernels, rather than in
    :mod:`repro.graphs.bitset_backends`: the numpy backend subclasses it, and
    the registry module imports the numpy backend, so defining the base
    class in the registry module would make the two modules import each
    other (and the outcome depend on which one was imported first).
    """

    #: Registry name (diagnostics / provenance).
    name = "abstract"

    # -- closure --------------------------------------------------------
    def closure(
        self, adj: Sequence[int], allowed_mask: int, n: int
    ) -> Tuple[int, ...]:
        """Reflexive-transitive closure of ``adj`` restricted to
        ``allowed_mask`` (see :func:`_closure_masks`); entries outside
        ``allowed_mask`` are 0."""
        return tuple(_closure_masks(adj, allowed_mask, n))

    def closure_many(
        self, adj: Sequence[int], allowed_masks: Sequence[int], n: int
    ) -> List[Tuple[int, ...]]:
        """:meth:`closure` for a batch of ``allowed`` masks over one
        adjacency — the numpy backend closes the whole batch in one
        vectorized pass."""
        return [self.closure(adj, allowed, n) for allowed in allowed_masks]

    def distinct_reach_masks(
        self, index: "BitsetIndex", base_excluded_mask: int, private_masks: Sequence[int]
    ) -> Tuple[Sequence[int], Sequence[Sequence[int]]]:
        """The distinct reach masks of a 2-reach core, with one witness each.

        An *entry* is a private set ``P`` (from ``private_masks``) and a
        node ``i`` outside ``base ∪ P``, with mask ``reach_i(base ∪ P)``.
        Entries whose mask is every live node (all of ``V \\ base``) are
        dropped: such a mask meets every other reach set.  Returns
        ``(masks, witnesses)``: the remaining masks, each once, in order of
        first appearance with private sets outer (in ``private_masks``
        order) and nodes inner (ascending bit), and per mask the
        ``(node_index, private_mask)`` of that first appearance.

        The order is part of the contract: the disjoint scan over
        ``masks`` reports the lexicographically first disjoint pair and
        counts the checks before it, so every backend must return the same
        masks in the same order for violation witnesses and
        ``checks_performed`` to agree.  Rows are served through
        :meth:`BitsetIndex.reach_masks_many` (memo first, then one batched
        closure call) and streamed: an excluded node's row is 0, and a live
        node's reach set contains the node, so ``dict.fromkeys(row)`` lists
        a row's live masks in node order.
        """
        live = index.full_mask & ~base_excluded_mask
        witnesses: Dict[int, Tuple[int, int]] = {}
        rows = index.reach_masks_many(
            [base_excluded_mask | private_mask for private_mask in private_masks]
        )
        for private_mask, row in zip(private_masks, rows):
            for mask in dict.fromkeys(row):
                if mask and mask != live and mask not in witnesses:
                    witnesses[mask] = (row.index(mask), private_mask)
        return list(witnesses), list(witnesses.values())

    # -- components -----------------------------------------------------
    def scc_masks(
        self, succ_masks: Sequence[int], allowed_mask: int, n: int
    ) -> List[int]:
        """SCC masks of the subgraph induced on ``allowed_mask``, in *some*
        reverse topological order of the condensation (the one ordering
        freedom backends have; the component *set* must be identical)."""
        return _tarjan_scc_masks(succ_masks, allowed_mask)

    def source_component(
        self,
        succ_masks: Sequence[int],
        pred_masks: Sequence[int],
        blocked_mask: int,
        full_mask: int,
    ) -> int:
        """Source component of the reduced graph (Definition 6): the mask of
        nodes reaching all of ``V`` once outgoing edges of ``blocked_mask``
        are cut."""
        return _source_component_scan(succ_masks, pred_masks, blocked_mask, full_mask)

    # -- f-covers -------------------------------------------------------
    def has_f_cover(self, masks: Sequence[int], f: int) -> bool:
        """Existence of an f-cover over mask-encoded path sets (Definition 4;
        exact semantics of :func:`has_f_cover_masks`)."""
        return has_f_cover_masks(masks, f)

    def any_f_cover(self, groups: Sequence[Sequence[int]], f: int) -> bool:
        """``True`` when any group admits an f-cover (the batched per-origin
        form; the numpy backend tests single-node covers for every origin in
        one vectorized sweep)."""
        for group in groups:
            if self.has_f_cover(group, f):
                return True
        return False

    # -- disjointness ---------------------------------------------------
    def find_disjoint_pair(self, masks: Sequence[int]) -> Optional[Tuple[int, int]]:
        """Lexicographically first disjoint pair, exactly as
        :func:`find_disjoint_pair` (violation witnesses and
        ``checks_performed`` accounting depend on the position).  ``masks``
        is whatever this backend's :meth:`distinct_reach_masks` returned, or
        a list of ints."""
        return find_disjoint_pair(masks)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"


class PythonBitsetBackend(BitsetBackend):
    """The reference backend: the inlined big-int kernels, dependency-free."""

    name = "python"


class PathCodec:
    """Codec turning propagation paths into ``(origin, member-mask, path)``.

    The hot loops of the Byzantine-Witness algorithm test paths against node
    sets millions of times: Definition 7 exclusion asks "does this path avoid
    the candidate fault set?", Verify asks "is this path inside the reach
    set?".  With every path carrying a *member mask* — the OR of its hops'
    bits — both collapse to one integer AND.

    The codec starts from a node → bit mapping (usually a copy of a
    :class:`BitsetIndex`'s, so masks are interchangeable with engine masks)
    and **interns unknown nodes on demand** at bit positions beyond the
    graph: a Byzantine sender may forge path hops that are not graph nodes,
    and those must still encode deterministically.  Because fault sets and
    reach sets only ever contain graph nodes, forged bits can never collide
    with an exclusion or reach mask — a path with a forged hop simply never
    tests as "inside" any graph-node set, which is exactly the semantics the
    tuple-level code had.
    """

    __slots__ = ("index", "_next_bit")

    def __init__(self, index: Optional[Dict[Node, int]] = None) -> None:
        #: private copy: interning forged nodes must never leak into the
        #: engine's node ↔ bit mapping.
        self.index: Dict[Node, int] = dict(index) if index else {}
        self._next_bit = max(self.index.values()) + 1 if self.index else 0

    @classmethod
    def for_engine(cls, engine: "BitsetIndex") -> "PathCodec":
        """A codec whose graph-node bits coincide with ``engine``'s."""
        return cls(engine.index)

    def bit(self, node: Node) -> int:
        """The bit position of ``node``, interning it when unseen."""
        position = self.index.get(node)
        if position is None:
            position = self._next_bit
            self.index[node] = position
            self._next_bit += 1
        return position

    def member_mask(self, path: Iterable[Node]) -> int:
        """OR of the bits of every hop of ``path`` (interning new hops)."""
        mask = 0
        index = self.index
        for node in path:
            position = index.get(node)
            if position is None:
                position = self._next_bit
                index[node] = position
                self._next_bit += 1
            mask |= 1 << position
        return mask

    def encode(self, path: Sequence[Node]) -> Tuple[Node, int, Tuple[Node, ...]]:
        """``path → (origin, member-mask, path-tuple)`` (the full codec)."""
        path = tuple(path)
        if not path:
            raise ValueError("cannot encode an empty path")
        return path[0], self.member_mask(path), path

    def mask_of(self, nodes: Iterable[Node], only_known: bool = False) -> int:
        """Bitmask of a node collection.

        With ``only_known`` unknown nodes are skipped instead of interned —
        the right mode for *exclusion* masks, where a node this codec has
        never seen cannot possibly appear on any encoded path.
        """
        mask = 0
        index = self.index
        if only_known:
            for node in nodes:
                position = index.get(node)
                if position is not None:
                    mask |= 1 << position
        else:
            for node in nodes:
                mask |= 1 << self.bit(node)
        return mask

    def __repr__(self) -> str:
        return f"<PathCodec nodes={len(self.index)}>"


class BitsetIndex:
    """Bitmask view of a :class:`DiGraph` with reach / SCC / source-component
    primitives.

    Bit ``i`` corresponds to ``self.nodes[i]`` (graph insertion order), so
    masks are canonical integers: two equal node sets always encode to the
    same ``int``, which is what the memo caches key on.
    """

    __slots__ = ("nodes", "index", "n", "full_mask", "pred_masks", "succ_masks",
                 "_reach_memo", "_source_memo", "_backend")

    #: Bound on each internal memo.  The shared instance lives as long as its
    #: graph, so the memos must be self-limiting: exhaustive sweeps on larger
    #: graphs evict oldest entries instead of growing without bound.  4096
    #: reach tuples of 64 small ints is ~2 MB worst case.
    MEMO_LIMIT = 4096

    def __init__(self, graph: DiGraph) -> None:
        nodes = list(graph.nodes)
        pred_masks = [0] * len(nodes)
        succ_masks = [0] * len(nodes)
        index = {node: i for i, node in enumerate(nodes)}
        for u, v in graph.edges:
            ui, vi = index[u], index[v]
            pred_masks[vi] |= 1 << ui
            succ_masks[ui] |= 1 << vi
        self._init_from_parts(nodes, pred_masks, succ_masks)

    def _init_from_parts(
        self, nodes: List[Node], pred_masks: List[int], succ_masks: List[int]
    ) -> None:
        self.nodes = nodes
        self.index = {node: i for i, node in enumerate(nodes)}
        self.n = len(nodes)
        self.full_mask = (1 << self.n) - 1
        self.pred_masks = pred_masks
        self.succ_masks = succ_masks
        #: excluded_mask → tuple of per-node reach masks (Definition 2).
        self._reach_memo: Dict[int, Tuple[int, ...]] = {}
        #: blocked_mask → source-component mask (Definition 6).
        self._source_memo: Dict[int, int] = {}
        #: computation backend, resolved lazily (per graph size + override).
        self._backend: Optional["BitsetBackend"] = None

    # ------------------------------------------------------------------
    # computation backend
    # ------------------------------------------------------------------
    @property
    def backend(self) -> "BitsetBackend":
        """The resolved computation backend of this index.

        Selected on first use through
        :func:`repro.graphs.bitset_backends.get_backend` (explicit
        ``REPRO_BITSET_BACKEND`` override, else numpy — when installed — for
        graphs at or above the auto-selection threshold, else the inlined
        python kernels).  Pin explicitly with :meth:`set_backend`.
        """
        backend = self._backend
        if backend is None:
            # lazy: bitset_backends imports this module (cycle)
            from repro.graphs.bitset_backends import get_backend

            backend = get_backend(self.n)
            self._backend = backend
        return backend

    def set_backend(self, backend: Optional[object]) -> None:
        """Pin the computation backend (a registered name, a backend object,
        or ``None`` to re-resolve automatically on next use)."""
        if backend is None or not isinstance(backend, str):
            self._backend = backend  # type: ignore[assignment]
        else:
            self._backend = BITSET_BACKENDS.get(backend)
        self.clear_memos()

    # ------------------------------------------------------------------
    # shared per-graph instances
    # ------------------------------------------------------------------
    @classmethod
    def for_graph(cls, graph: DiGraph) -> "BitsetIndex":
        """The shared index of ``graph``, rebuilt only after mutations.

        The cache lives on the graph instance itself and is keyed by the
        graph's mutation counter, so every consumer (condition checkers,
        reach/source-component caches, BW topology precomputation) operating
        on one graph shares one index.
        """
        version = getattr(graph, "_version", None)
        cached = graph.__dict__.get("_bitset_index")
        if cached is not None and cached[0] == version:
            return cached[1]
        instance = cls(graph)
        graph.__dict__["_bitset_index"] = (version, instance)
        return instance

    @classmethod
    def peek(cls, graph: DiGraph) -> Optional["BitsetIndex"]:
        """The shared index of ``graph`` if one is already built and current,
        else ``None`` — never triggers a build (cache diagnostics)."""
        version = getattr(graph, "_version", None)
        cached = graph.__dict__.get("_bitset_index")
        if cached is not None and cached[0] == version:
            return cached[1]
        return None

    # ------------------------------------------------------------------
    # multiprocessing payload
    # ------------------------------------------------------------------
    def to_payload(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Compact picklable encoding (adjacency masks only, no node labels)."""
        return tuple(self.pred_masks), tuple(self.succ_masks)

    @classmethod
    def from_payload(
        cls, payload: Tuple[Sequence[int], Sequence[int]]
    ) -> "BitsetIndex":
        """Rebuild an index from :meth:`to_payload` output.

        Nodes are anonymised to ``0..n-1`` bit positions — workers only deal
        in masks; decoding back to node labels happens in the parent process.
        """
        pred_masks, succ_masks = payload
        instance = cls.__new__(cls)
        instance._init_from_parts(
            list(range(len(pred_masks))), list(pred_masks), list(succ_masks)
        )
        return instance

    # ------------------------------------------------------------------
    # codecs
    # ------------------------------------------------------------------
    def mask_of(self, nodes: Iterable[Node], ignore_missing: bool = False) -> int:
        """Bitmask of a node collection.

        Unknown nodes raise ``KeyError`` unless ``ignore_missing`` is set
        (the lenient mode matches ``DiGraph.exclude_nodes``, which silently
        drops nodes that are not in the graph).
        """
        mask = 0
        index = self.index
        if ignore_missing:
            for node in nodes:
                i = index.get(node)
                if i is not None:
                    mask |= 1 << i
        else:
            for node in nodes:
                mask |= 1 << index[node]
        return mask

    def nodes_of(self, mask: int) -> FrozenSet[Node]:
        """Node set corresponding to a bitmask."""
        nodes = self.nodes
        return frozenset(nodes[i] for i in iter_bits(mask))

    # ------------------------------------------------------------------
    # reachability (Definition 2)
    # ------------------------------------------------------------------
    def reach_masks(self, excluded_mask: int = 0) -> Tuple[int, ...]:
        """``reach_v(F)`` for every node ``v`` outside ``F``, as bitmasks.

        ``reach[i]`` is the set of nodes outside ``F`` (including ``i``) with
        a directed path to ``i`` in the graph induced on ``V \\ F``; entries
        for excluded nodes are 0.  Backward reachability is the forward
        closure of the predecessor adjacency, computed in one bitmask-Tarjan
        pass and memoised per ``excluded_mask`` (checkers revisit the same
        exclusion for many node pairs).
        """
        memo = self._reach_memo
        cached = memo.get(excluded_mask)
        if cached is not None:
            return cached
        allowed = self.full_mask & ~excluded_mask
        result = self.backend.closure(self.pred_masks, allowed, self.n)
        if len(memo) >= self.MEMO_LIMIT:
            memo.pop(next(iter(memo)))  # insertion order: evict the oldest
        memo[excluded_mask] = result
        return result

    #: How many closures a single :meth:`reach_masks_many` backend call may
    #: batch (the numpy kernel additionally caps its own working set).
    CLOSURE_BATCH = 256

    def reach_masks_many(
        self, excluded_masks: Sequence[int]
    ) -> List[Tuple[int, ...]]:
        """:meth:`reach_masks` for a whole batch of exclusion sets.

        Misses are computed through the backend's batched closure kernel
        (one vectorized pass per :attr:`CLOSURE_BATCH` on numpy, a plain
        loop on python) and fill the per-exclusion memo exactly like single
        queries.  The rows returned are the ones this call found or
        computed, so a request larger than :attr:`MEMO_LIMIT` closes each
        distinct exclusion once even though the memo evicts some of them
        before the call returns.
        """
        memo = self._reach_memo
        rows: Dict[int, Tuple[int, ...]] = {}
        missing: List[int] = []
        for mask in dict.fromkeys(excluded_masks):
            cached = memo.get(mask)
            if cached is None:
                missing.append(mask)
            else:
                rows[mask] = cached
        full = self.full_mask
        for start in range(0, len(missing), self.CLOSURE_BATCH):
            chunk = missing[start : start + self.CLOSURE_BATCH]
            results = self.backend.closure_many(
                self.pred_masks, [full & ~mask for mask in chunk], self.n
            )
            for mask, result in zip(chunk, results):
                if len(memo) >= self.MEMO_LIMIT:
                    memo.pop(next(iter(memo)))
                memo[mask] = rows[mask] = result
        return [rows[mask] for mask in excluded_masks]

    def reach_mask(self, node: Node, excluded_mask: int = 0) -> int:
        """``reach_node(F)`` as a bitmask (single-node convenience)."""
        return self.reach_masks(excluded_mask)[self.index[node]]

    def descendant_masks(
        self, excluded_mask: int = 0, blocked_mask: int = 0
    ) -> Tuple[int, ...]:
        """Forward closure: for every live node the set it can reach.

        ``excluded_mask`` removes nodes entirely (induced subgraph);
        ``blocked_mask`` keeps the nodes but cuts their *outgoing* edges —
        exactly the reduced-graph construction of Definition 5.  Entries for
        excluded nodes are 0; blocked-but-present nodes reach only
        themselves.
        """
        allowed = self.full_mask & ~excluded_mask
        if blocked_mask:
            adj = self.reduced_succ_masks(blocked_mask)
        else:
            adj = self.succ_masks
        return self.backend.closure(adj, allowed, self.n)

    # ------------------------------------------------------------------
    # reduced graph (Definition 5) and source component (Definition 6)
    # ------------------------------------------------------------------
    def reduced_succ_masks(self, blocked_mask: int) -> Tuple[int, ...]:
        """Successor masks of the reduced graph ``G_{F1,F2}`` (Definition 5).

        Outgoing edges of blocked nodes are cut; the vertex set (and incoming
        edges into blocked nodes) are untouched.
        """
        return tuple(
            0 if blocked_mask & (1 << i) else succ
            for i, succ in enumerate(self.succ_masks)
        )

    def source_component_mask(self, blocked_mask: int = 0) -> int:
        """The source component ``S_{F1,F2}`` of Definition 6, as a bitmask.

        Nodes of the reduced graph (outgoing edges of ``blocked_mask`` cut)
        with directed paths to *all* nodes of ``V``.  Memoised per
        ``blocked_mask`` — Completeness evaluates ``S_{F_u,F_w}`` for every
        pair of candidate fault sets, but the component only depends on the
        union.
        """
        memo = self._source_memo
        cached = memo.get(blocked_mask)
        if cached is not None:
            return cached
        result = self._source_component_uncached(blocked_mask)
        if len(memo) >= self.MEMO_LIMIT:
            memo.pop(next(iter(memo)))  # insertion order: evict the oldest
        memo[blocked_mask] = result
        return result

    def _source_component_uncached(self, blocked_mask: int) -> int:
        """Single uncached source-component query, routed to the backend
        (mother-vertex scan on python, closure rows on numpy — see
        :func:`_source_component_scan` for the reference algorithm)."""
        return self.backend.source_component(
            self.succ_masks, self.pred_masks, blocked_mask, self.full_mask
        )

    # ------------------------------------------------------------------
    # strongly connected components (bitmask iterative Tarjan)
    # ------------------------------------------------------------------
    def scc_masks(self, allowed_mask: Optional[int] = None) -> List[int]:
        """SCCs of the subgraph induced on ``allowed_mask``, as bitmasks.

        Returned in reverse topological order of the condensation (a
        component is emitted only after every component it can reach),
        matching :meth:`DiGraph.strongly_connected_components`.
        """
        if allowed_mask is None:
            allowed_mask = self.full_mask
        return self.backend.scc_masks(self.succ_masks, allowed_mask, self.n)

    def in_neighbors_mask(self, subset_mask: int, allowed_mask: Optional[int] = None) -> int:
        """Incoming neighbourhood ``N-_B`` of ``subset`` restricted to
        ``allowed \\ subset`` (Definition 14's counting substrate)."""
        if allowed_mask is None:
            allowed_mask = self.full_mask
        incoming = 0
        pred_masks = self.pred_masks
        for i in iter_bits(subset_mask):
            incoming |= pred_masks[i]
        return incoming & allowed_mask & ~subset_mask

    def is_strongly_connected_mask(self, subset_mask: int) -> bool:
        """``True`` when the subgraph induced on ``subset_mask`` is strongly
        connected (the empty mask is not)."""
        if subset_mask == 0:
            return False
        root = (subset_mask & -subset_mask).bit_length() - 1
        excluded = self.full_mask & ~subset_mask
        if self.reach_masks(excluded)[root] != subset_mask:
            return False
        return self.descendant_masks(excluded)[root] == subset_mask

    # ------------------------------------------------------------------
    # memo management
    # ------------------------------------------------------------------
    def clear_memos(self) -> None:
        """Drop the internal reach / source-component memos."""
        self._reach_memo.clear()
        self._source_memo.clear()

    def memo_sizes(self) -> Dict[str, int]:
        """Sizes of the internal memos (diagnostics for cache accounting)."""
        return {
            "reach_exclusions": len(self._reach_memo),
            "source_components": len(self._source_memo),
        }

    def __repr__(self) -> str:
        return f"<BitsetIndex n={self.n} memo={self.memo_sizes()}>"

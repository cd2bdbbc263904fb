"""Graph generators: the paper's example graphs plus synthetic families.

Provides the two graphs of Figure 1, the clique / complete-digraph family the
clique specializations are checked against (Appendix A), and the synthetic
families (random digraphs, bidirected random graphs, rings, wheels, layered
DAG-with-feedback graphs) used by the benchmark harness to populate the
Table 1 / Table 2 reproductions.

All generators return :class:`~repro.graphs.digraph.DiGraph` instances with
integer or string node labels and a descriptive ``name``.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from repro.exceptions import GraphError
from repro.graphs.digraph import DiGraph, Node
from repro.registry import TOPOLOGIES


# ----------------------------------------------------------------------
# elementary families
# ----------------------------------------------------------------------
def complete_digraph(n: int, labels: Optional[Sequence[Node]] = None) -> DiGraph:
    """The complete directed graph (clique) on ``n`` nodes.

    Every ordered pair of distinct nodes is an edge; this is the network model
    of Abraham et al. [1] that the paper generalizes.
    """
    if n < 1:
        raise GraphError("a clique needs at least one node")
    nodes = list(labels) if labels is not None else list(range(n))
    if len(nodes) != n:
        raise GraphError("labels length must equal n")
    graph = DiGraph(nodes=nodes, name=f"clique-{n}")
    for u in nodes:
        for v in nodes:
            if u != v:
                graph.add_edge(u, v)
    return graph


def directed_cycle(n: int) -> DiGraph:
    """A directed cycle ``0 → 1 → ... → n-1 → 0``."""
    if n < 2:
        raise GraphError("a directed cycle needs at least two nodes")
    graph = DiGraph(nodes=range(n), name=f"cycle-{n}")
    for i in range(n):
        graph.add_edge(i, (i + 1) % n)
    return graph


def bidirected_cycle(n: int) -> DiGraph:
    """An undirected cycle modelled as a bidirected digraph."""
    if n < 3:
        raise GraphError("an undirected cycle needs at least three nodes")
    graph = DiGraph(nodes=range(n), name=f"bicycle-{n}")
    for i in range(n):
        graph.add_bidirectional_edge(i, (i + 1) % n)
    return graph


def directed_path(n: int) -> DiGraph:
    """A directed path ``0 → 1 → ... → n-1``."""
    if n < 1:
        raise GraphError("a path needs at least one node")
    graph = DiGraph(nodes=range(n), name=f"path-{n}")
    for i in range(n - 1):
        graph.add_edge(i, i + 1)
    return graph


def star_out(n: int) -> DiGraph:
    """A star with node 0 broadcasting to ``n - 1`` leaves."""
    if n < 2:
        raise GraphError("a star needs at least two nodes")
    graph = DiGraph(nodes=range(n), name=f"star-out-{n}")
    for i in range(1, n):
        graph.add_edge(0, i)
    return graph


def bidirected_star(n: int) -> DiGraph:
    """An undirected star (hub node 0) as a bidirected digraph."""
    if n < 2:
        raise GraphError("a star needs at least two nodes")
    graph = DiGraph(nodes=range(n), name=f"star-{n}")
    for i in range(1, n):
        graph.add_bidirectional_edge(0, i)
    return graph


def bidirected_wheel(n: int) -> DiGraph:
    """An undirected wheel: a cycle on nodes ``1..n-1`` plus hub node ``0``.

    Wheels are the classical minimal examples of 3-connected graphs and are
    used in the Table 1 reproduction.
    """
    if n < 4:
        raise GraphError("a wheel needs at least four nodes")
    graph = DiGraph(nodes=range(n), name=f"wheel-{n}")
    rim = list(range(1, n))
    for i, node in enumerate(rim):
        graph.add_bidirectional_edge(node, rim[(i + 1) % len(rim)])
        graph.add_bidirectional_edge(0, node)
    return graph


def bidirected_complete(n: int) -> DiGraph:
    """The undirected complete graph as a bidirected digraph (same as clique)."""
    graph = complete_digraph(n)
    graph.name = f"undirected-complete-{n}"
    return graph


# ----------------------------------------------------------------------
# the paper's Figure 1 graphs
# ----------------------------------------------------------------------
def figure_1a() -> DiGraph:
    """Figure 1(a): a 5-node undirected graph where synchronous exact
    Byzantine consensus is feasible for ``f = 1``.

    The figure shows nodes ``v1..v5`` with connectivity κ(G) = 3 > 2f and
    ``n = 5 > 3f = 3``; removing any edge drops the connectivity below
    ``2f + 1`` and makes consensus (and RMT) impossible.  The drawing is the
    "pentagon plus chords" graph: the unique (up to isomorphism) 3-connected
    5-node graph with the minimum number of edges consistent with the figure
    layout — every node has degree exactly 3, i.e. the complement of a
    perfect matching... which does not exist on 5 nodes; the minimal
    3-connected 5-node graphs have 8 edges (degree sequence 4,3,3,3,3).  We
    use the wheel W5 (hub ``v1``): κ = 3, and every edge is critical for
    κ > 2, matching the figure's claim that removing any edge reduces κ(G).
    """
    graph = DiGraph(name="figure-1a")
    v = {i: f"v{i}" for i in range(1, 6)}
    rim = [v[2], v[3], v[4], v[5]]
    for i, node in enumerate(rim):
        graph.add_bidirectional_edge(node, rim[(i + 1) % len(rim)])
        graph.add_bidirectional_edge(v[1], node)
    return graph


def figure_1b() -> DiGraph:
    """Figure 1(b): two 7-node cliques joined by eight directed edges, f = 2.

    The graph consists of cliques ``K1 = {v1..v7}`` and ``K2 = {w1..w7}``
    (all intra-clique edges bidirectional, not drawn in the figure) plus the
    eight directed inter-clique edges shown in the figure.  The figure draws
    four edges from K1 into K2 and four from K2 into K1, attached to the
    "outer" columns, such that some pairs (e.g. ``v1`` and ``w1``) are
    connected by only ``2f = 4`` vertex-disjoint paths while the 3-reach
    condition still holds for ``f = 2``.

    Concretely we use the arrangement

    * ``w1 → v1``, ``w2 → v2``, ``w3 → v3``, ``w4 → v4``  (K2 into K1)
    * ``v4 → w4``, ``v5 → w5``, ``v6 → w6``, ``v7 → w7``  (K1 into K2)

    which yields exactly 4 vertex-disjoint ``(v1, w1)``-paths (all K1→K2
    traffic must cross the 4-edge cut ``{v4→w4, ..., v7→w7}``) and satisfies
    3-reach for ``f = 2`` — both properties are verified by
    ``tests/test_figures.py``.
    """
    graph = DiGraph(name="figure-1b")
    v_nodes = [f"v{i}" for i in range(1, 8)]
    w_nodes = [f"w{i}" for i in range(1, 8)]
    for clique in (v_nodes, w_nodes):
        for i, a in enumerate(clique):
            for b in clique[i + 1:]:
                graph.add_bidirectional_edge(a, b)
    for i in (1, 2, 3, 4):
        graph.add_edge(f"w{i}", f"v{i}")
    for i in (4, 5, 6, 7):
        graph.add_edge(f"v{i}", f"w{i}")
    return graph


def two_cliques_bridged(
    clique_size: int, forward_bridges: int, backward_bridges: int
) -> DiGraph:
    """A parametric generalization of Figure 1(b).

    Two bidirected cliques ``A = {a0..}`` and ``B = {b0..}`` with
    ``forward_bridges`` directed edges from A to B (``a_i → b_i``) and
    ``backward_bridges`` directed edges from B to A (``b_{k-1-i} → a_{k-1-i}``
    counted from the top).  Used for resilience sweeps: 3-reach holds for
    ``f`` roughly when each bridge count exceeds ``2f``.
    """
    if clique_size < 1:
        raise GraphError("clique_size must be positive")
    if forward_bridges > clique_size or backward_bridges > clique_size:
        raise GraphError("cannot have more bridges than clique nodes")
    graph = DiGraph(name=f"two-cliques-{clique_size}-{forward_bridges}f-{backward_bridges}b")
    a_nodes = [f"a{i}" for i in range(clique_size)]
    b_nodes = [f"b{i}" for i in range(clique_size)]
    for clique in (a_nodes, b_nodes):
        for i, x in enumerate(clique):
            graph.add_node(x)
            for y in clique[i + 1:]:
                graph.add_bidirectional_edge(x, y)
    for i in range(forward_bridges):
        graph.add_edge(a_nodes[i], b_nodes[i])
    for i in range(backward_bridges):
        graph.add_edge(b_nodes[clique_size - 1 - i], a_nodes[clique_size - 1 - i])
    return graph


# ----------------------------------------------------------------------
# random families
# ----------------------------------------------------------------------
def _require(condition: bool, family: str, parameter: str, requirement: str) -> None:
    """Uniform validation for the random families: every :class:`GraphError`
    names the family and the offending parameter, so a bad scenario TOML is
    diagnosable from the message alone."""
    if not condition:
        raise GraphError(f"{family}: parameter {parameter!r} {requirement}")


def random_digraph(
    n: int, p: float, seed: Optional[int] = None, ensure_connected: bool = False
) -> DiGraph:
    """An Erdős–Rényi style random digraph: each ordered pair is an edge w.p. ``p``.

    With ``ensure_connected`` a directed Hamiltonian cycle is added first so
    the result is strongly connected (useful for consensus workloads where a
    totally disconnected sample would be uninteresting).
    """
    _require(n >= 1, "random-digraph", "n", f"must be positive, got {n}")
    _require(0.0 <= p <= 1.0, "random-digraph", "p", f"must be within [0, 1], got {p}")
    rng = random.Random(seed)
    graph = DiGraph(nodes=range(n), name=f"random-digraph-{n}-{p}")
    if ensure_connected and n >= 2:
        order = list(range(n))
        rng.shuffle(order)
        for i in range(n):
            graph.add_edge(order[i], order[(i + 1) % n])
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < p:
                graph.add_edge(u, v)
    return graph


def random_bidirected_graph(
    n: int, p: float, seed: Optional[int] = None, ensure_connected: bool = False
) -> DiGraph:
    """A random undirected graph G(n, p) modelled as a bidirected digraph.

    With ``ensure_connected`` a shuffled Hamiltonian cycle of bidirected
    edges is added first, guaranteeing a connected (hence strongly
    connected) sample.  The flag defaults off and, when off, leaves the RNG
    stream untouched, so pre-existing seeded samples are unchanged.
    """
    _require(n >= 1, "random-bidirected", "n", f"must be positive, got {n}")
    _require(0.0 <= p <= 1.0, "random-bidirected", "p", f"must be within [0, 1], got {p}")
    rng = random.Random(seed)
    graph = DiGraph(nodes=range(n), name=f"random-undirected-{n}-{p}")
    if ensure_connected and n >= 2:
        order = list(range(n))
        rng.shuffle(order)
        for i in range(n - 1):
            graph.add_bidirectional_edge(order[i], order[i + 1])
        if n >= 3:
            graph.add_bidirectional_edge(order[-1], order[0])
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                graph.add_bidirectional_edge(u, v)
    return graph


def random_k_out_digraph(
    n: int, k: int, seed: Optional[int] = None, ensure_connected: bool = False
) -> DiGraph:
    """Each node points at ``k`` distinct random other nodes (a sparse family).

    With ``ensure_connected`` each node's ``k`` targets are forced to include
    its successor on a shuffled Hamiltonian cycle, so the sample is strongly
    connected while every out-degree stays exactly ``k``.
    """
    _require(n >= 1, "random-k-out", "n", f"must be positive, got {n}")
    _require(k >= 1, "random-k-out", "k", f"must be positive, got {k}")
    _require(k < n, "random-k-out", "k", f"must be smaller than n={n}, got {k}")
    rng = random.Random(seed)
    graph = DiGraph(nodes=range(n), name=f"random-{k}-out-{n}")
    successor = {}
    if ensure_connected and n >= 2:
        order = list(range(n))
        rng.shuffle(order)
        successor = {order[i]: order[(i + 1) % n] for i in range(n)}
    for u in range(n):
        if u in successor:
            others = [v for v in range(n) if v != u and v != successor[u]]
            targets = [successor[u]] + rng.sample(others, k - 1)
        else:
            targets = rng.sample([v for v in range(n) if v != u], k)
        for v in targets:
            graph.add_edge(u, v)
    return graph


# ----------------------------------------------------------------------
# the topology zoo: seeded scale-free / small-world / prescribed-degree /
# Kronecker families (ROADMAP's APGL exemplar set)
# ----------------------------------------------------------------------
def barabasi_albert_digraph(
    n: int, m: int, seed: Optional[int] = None, ensure_connected: bool = False
) -> DiGraph:
    """A directed Barabási–Albert preferential-attachment graph.

    Nodes arrive one at a time; each newcomer sends ``m`` edges to distinct
    existing nodes chosen preferentially by total degree (the
    Batagelj–Brandes repeated-nodes scheme), starting from a bidirected
    clique on the first ``m + 1`` nodes.  Newcomer edges are *one-way*
    (newcomer → target), so late arrivals can reach the old core but not
    vice versa — the asymmetric-transmitter regime the paper's directed
    conditions are about.  With ``ensure_connected`` a shuffled directed
    Hamiltonian cycle is added first, making every sample strongly
    connected.
    """
    _require(n >= 2, "barabasi-albert", "n", f"must be at least 2, got {n}")
    _require(m >= 1, "barabasi-albert", "m", f"must be positive, got {m}")
    _require(m < n, "barabasi-albert", "m", f"must be smaller than n={n}, got {m}")
    rng = random.Random(seed)
    graph = DiGraph(nodes=range(n), name=f"ba-{n}-m{m}")
    if ensure_connected:
        order = list(range(n))
        rng.shuffle(order)
        for i in range(n):
            graph.add_edge(order[i], order[(i + 1) % n])
    core = min(m + 1, n)
    repeated: List[int] = []  # one entry per degree unit: attachment weights
    for u in range(core):
        for v in range(u + 1, core):
            graph.add_bidirectional_edge(u, v)
            repeated.extend((u, v))
    for u in range(core, n):
        targets: set = set()
        while len(targets) < m:
            choice = rng.choice(repeated) if repeated else rng.randrange(u)
            if choice != u:
                targets.add(choice)
        for v in sorted(targets):
            graph.add_edge(u, v)
            repeated.extend((u, v))
    return graph


def _watts_strogatz_lattice_pairs(n: int, k: int) -> List:
    """The ring-lattice edge list (u, u+offset) the WS rewiring starts from."""
    return [(u, (u + offset) % n) for offset in range(1, k // 2 + 1) for u in range(n)]


def _watts_strogatz_pending(n: int, k: int) -> dict:
    """Per-node sets of lattice targets not yet processed by the rewire loop.

    Rewire choices must exclude these: landing a rewired edge on a later
    lattice target of the same node would block that lattice edge and
    silently shrink the degree the family promises.
    """
    pending: dict = {u: set() for u in range(n)}
    for u, v in _watts_strogatz_lattice_pairs(n, k):
        pending[u].add(v)
    return pending


def _validate_watts_strogatz(family: str, n: int, k: int, beta: float) -> None:
    _require(n >= 3, family, "n", f"must be at least 3, got {n}")
    _require(k >= 2, family, "k", f"must be at least 2, got {k}")
    _require(k % 2 == 0, family, "k", f"must be even, got {k}")
    _require(k < n, family, "k", f"must be smaller than n={n}, got {k}")
    _require(0.0 <= beta <= 1.0, family, "beta", f"must be within [0, 1], got {beta}")


def watts_strogatz_digraph(
    n: int, k: int, beta: float, seed: Optional[int] = None, ensure_connected: bool = False
) -> DiGraph:
    """A directed Watts–Strogatz small-world graph.

    Starts from a directed ring lattice where every node has out-edges to
    its ``k / 2`` clockwise neighbours at offsets ``1..k/2`` (``k`` even),
    then rewires each out-edge independently with probability ``beta`` to a
    uniform random non-self, non-duplicate target.  Out-degrees stay exactly
    ``k / 2``; in-degrees spread out as ``beta`` grows.  ``beta = 0`` is the
    pure lattice, ``beta = 1`` approaches a random ``k/2``-out digraph.
    With ``ensure_connected`` a shuffled directed Hamiltonian cycle is laid
    down first (rewiring never removes it).
    """
    _validate_watts_strogatz("watts-strogatz", n, k, beta)
    rng = random.Random(seed)
    graph = DiGraph(nodes=range(n), name=f"ws-{n}-k{k}-b{beta}")
    if ensure_connected:
        order = list(range(n))
        rng.shuffle(order)
        for i in range(n):
            graph.add_edge(order[i], order[(i + 1) % n])
    pending = _watts_strogatz_pending(n, k)
    for u, v in _watts_strogatz_lattice_pairs(n, k):
        pending[u].discard(v)
        target = v
        if rng.random() < beta:
            choices = [
                w
                for w in range(n)
                if w != u and not graph.has_edge(u, w) and w not in pending[u]
            ]
            if choices:
                target = rng.choice(choices)
        if not graph.has_edge(u, target):
            graph.add_edge(u, target)
    return graph


def watts_strogatz_bidirected(
    n: int, k: int, beta: float, seed: Optional[int] = None, ensure_connected: bool = False
) -> DiGraph:
    """The classical (undirected) Watts–Strogatz graph as a bidirected digraph.

    The standard construction: a ring lattice where every node is joined to
    its ``k`` nearest neighbours (``k / 2`` on each side), each lattice edge
    rewired with probability ``beta`` — so the same rewire semantics as
    ``networkx.watts_strogatz_graph``.  With ``ensure_connected`` a shuffled
    bidirected Hamiltonian cycle is laid down first.
    """
    _validate_watts_strogatz("watts-strogatz-bidirected", n, k, beta)
    rng = random.Random(seed)
    graph = DiGraph(nodes=range(n), name=f"ws-bi-{n}-k{k}-b{beta}")
    if ensure_connected:
        order = list(range(n))
        rng.shuffle(order)
        for i in range(n):
            graph.add_bidirectional_edge(order[i], order[(i + 1) % n])
    pending = _watts_strogatz_pending(n, k)
    for u, v in _watts_strogatz_lattice_pairs(n, k):
        pending[u].discard(v)
        target = v
        if rng.random() < beta:
            choices = [
                w
                for w in range(n)
                if w != u and not graph.has_edge(u, w) and w not in pending[u]
            ]
            if choices:
                target = rng.choice(choices)
        if not graph.has_edge(u, target):
            graph.add_bidirectional_edge(u, target)
    return graph


def _parse_degree_sequence(family: str, parameter: str, degrees) -> List[int]:
    """A degree sequence from either a sequence of ints or the ``"2,2,1"``
    comma-separated form scenario TOMLs use (topology params are scalars)."""
    if isinstance(degrees, str):
        try:
            values = [int(part.strip()) for part in degrees.split(",") if part.strip()]
        except ValueError:
            raise GraphError(
                f"{family}: parameter {parameter!r} must be a comma-separated list "
                f"of integers, got {degrees!r}"
            ) from None
    elif isinstance(degrees, Sequence):
        values = []
        for entry in degrees:
            if isinstance(entry, bool) or not isinstance(entry, int):
                raise GraphError(
                    f"{family}: parameter {parameter!r} must hold integers, got {entry!r}"
                )
            values.append(entry)
    else:
        raise GraphError(
            f"{family}: parameter {parameter!r} must be a degree sequence "
            f"(list of ints or comma-separated string), got {degrees!r}"
        )
    _require(bool(values), family, parameter, "must be a non-empty degree sequence")
    for value in values:
        _require(value >= 0, family, parameter, f"entries must be non-negative, got {value}")
    return values


def configuration_model_digraph(
    out_degrees, in_degrees, seed: Optional[int] = None, ensure_connected: bool = False
) -> DiGraph:
    """A directed configuration-model graph from prescribed degree sequences.

    ``out_degrees[i]`` / ``in_degrees[i]`` prescribe node ``i``'s out- and
    in-stubs; both sequences accept the comma-separated string form
    (``"3,3,2,2"``) scenario TOMLs need.  Stubs are shuffled and paired
    (out-stub → in-stub); self-loops and duplicate pairings are dropped, so
    realized degrees are *at most* the prescription — the standard
    simple-graph projection of the configuration model.  With
    ``ensure_connected`` a shuffled directed Hamiltonian cycle is added
    on top (realized out-degrees may then exceed the prescription by one).
    """
    family = "configuration-model"
    outs = _parse_degree_sequence(family, "out_degrees", out_degrees)
    ins = _parse_degree_sequence(family, "in_degrees", in_degrees)
    _require(
        len(outs) == len(ins),
        family,
        "in_degrees",
        f"must have the same length as out_degrees ({len(outs)}), got {len(ins)}",
    )
    _require(
        sum(outs) == sum(ins),
        family,
        "in_degrees",
        f"must sum to the out-degree total {sum(outs)}, got {sum(ins)}",
    )
    n = len(outs)
    for name, sequence in (("out_degrees", outs), ("in_degrees", ins)):
        for value in sequence:
            _require(value < n, family, name, f"entries must be below n={n}, got {value}")
    rng = random.Random(seed)
    graph = DiGraph(nodes=range(n), name=f"config-{n}")
    if ensure_connected and n >= 2:
        order = list(range(n))
        rng.shuffle(order)
        for i in range(n):
            graph.add_edge(order[i], order[(i + 1) % n])
    out_stubs = [u for u, degree in enumerate(outs) for _ in range(degree)]
    in_stubs = [v for v, degree in enumerate(ins) for _ in range(degree)]
    rng.shuffle(out_stubs)
    rng.shuffle(in_stubs)
    for u, v in zip(out_stubs, in_stubs):
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v)
    return graph


def stochastic_kronecker_digraph(
    k: int,
    a: float = 0.9,
    b: float = 0.5,
    c: float = 0.5,
    d: float = 0.1,
    seed: Optional[int] = None,
    ensure_connected: bool = False,
) -> DiGraph:
    """A stochastic Kronecker graph on ``2**k`` nodes.

    The 2×2 initiator ``[[a, b], [c, d]]`` is Kronecker-powered ``k`` times;
    ordered pair ``(u, v)`` is an edge with probability
    ``prod_i P[u_i][v_i]`` over the ``k`` bit positions of ``u`` and ``v``
    (self-loops skipped).  ``a > d`` yields the classical core–periphery
    shape; ``b != c`` makes the family genuinely directed.  With
    ``ensure_connected`` a shuffled directed Hamiltonian cycle is added
    first.
    """
    family = "stochastic-kronecker"
    _require(isinstance(k, int) and not isinstance(k, bool), family, "k", f"must be an integer, got {k!r}")
    _require(1 <= k <= 10, family, "k", f"must be within [1, 10] (n = 2**k), got {k}")
    for name, value in (("a", a), ("b", b), ("c", c), ("d", d)):
        _require(
            0.0 <= value <= 1.0, family, name, f"must be a probability in [0, 1], got {value}"
        )
    rng = random.Random(seed)
    n = 2 ** k
    initiator = ((a, b), (c, d))
    graph = DiGraph(nodes=range(n), name=f"kron-{k}-{a}-{b}-{c}-{d}")
    if ensure_connected:
        order = list(range(n))
        rng.shuffle(order)
        for i in range(n):
            graph.add_edge(order[i], order[(i + 1) % n])
    for u in range(n):
        for v in range(n):
            if u == v:
                continue
            probability = 1.0
            for bit in range(k):
                probability *= initiator[(u >> bit) & 1][(v >> bit) & 1]
            if rng.random() < probability:
                graph.add_edge(u, v)
    return graph


# ----------------------------------------------------------------------
# structured directed families for consensus workloads
# ----------------------------------------------------------------------
def clique_with_feeders(core_size: int, feeders: int) -> DiGraph:
    """A bidirected core clique plus ``feeders`` nodes that only *listen*.

    Feeder node ``s_i`` has incoming edges from every core node but a single
    outgoing edge back into the core, producing genuinely directed topologies
    where information flows asymmetrically — a minimal model of the wireless
    motivation in the introduction (different transmission ranges).
    """
    if core_size < 1:
        raise GraphError("core_size must be positive")
    graph = DiGraph(name=f"clique{core_size}+feeders{feeders}")
    core = [f"c{i}" for i in range(core_size)]
    for i, a in enumerate(core):
        graph.add_node(a)
        for b in core[i + 1:]:
            graph.add_bidirectional_edge(a, b)
    for i in range(feeders):
        feeder = f"s{i}"
        for c in core:
            graph.add_edge(c, feeder)
        graph.add_edge(feeder, core[i % core_size])
    return graph


def layered_relay_digraph(width: int, depth: int) -> DiGraph:
    """``depth`` layers of ``width`` nodes; consecutive layers fully
    connected forward, with a bidirected clique on the first layer and
    feedback edges from the last layer back to the first.

    A directed family where 3-reach tends to hold for small ``f`` thanks to
    the wide layer-to-layer cuts.
    """
    if width < 1 or depth < 1:
        raise GraphError("width and depth must be positive")
    graph = DiGraph(name=f"layered-{width}x{depth}")
    layers: List[List[str]] = [[f"L{d}N{i}" for i in range(width)] for d in range(depth)]
    for layer in layers:
        for node in layer:
            graph.add_node(node)
    first = layers[0]
    for i, a in enumerate(first):
        for b in first[i + 1:]:
            graph.add_bidirectional_edge(a, b)
    for d in range(depth - 1):
        for a in layers[d]:
            for b in layers[d + 1]:
                graph.add_edge(a, b)
    for a in layers[-1]:
        for b in layers[0]:
            if a != b:
                graph.add_edge(a, b)
    return graph


def directed_sensor_field(
    rows: int, cols: int, long_range_every: int = 0
) -> DiGraph:
    """A grid of sensors with asymmetric radio ranges.

    Each sensor talks to its right and down neighbours bidirectionally and
    additionally *hears* (incoming edge) its up/left neighbours, modelling a
    field where downstream nodes have weaker transmitters.  Optionally every
    ``long_range_every``-th node gets a long-range edge back to node (0, 0),
    which strengthens the reach conditions.
    """
    if rows < 1 or cols < 1:
        raise GraphError("rows and cols must be positive")
    graph = DiGraph(name=f"sensor-field-{rows}x{cols}")

    def label(r: int, c: int) -> str:
        return f"s{r}_{c}"

    for r in range(rows):
        for c in range(cols):
            graph.add_node(label(r, c))
    count = 0
    for r in range(rows):
        for c in range(cols):
            here = label(r, c)
            if c + 1 < cols:
                graph.add_bidirectional_edge(here, label(r, c + 1))
            if r + 1 < rows:
                graph.add_bidirectional_edge(here, label(r + 1, c))
            count += 1
            if long_range_every and count % long_range_every == 0 and (r, c) != (0, 0):
                graph.add_edge(here, label(0, 0))
    return graph


def make_bidirected(graph: DiGraph) -> DiGraph:
    """Return a copy with every edge's reverse added (symmetrization)."""
    result = graph.copy(name=f"{graph.name}|bidirected")
    for u, v in graph.edges:
        if not result.has_edge(v, u):
            result.add_edge(v, u)
    return result


def relabel(graph: DiGraph, mapping) -> DiGraph:
    """Return a copy with nodes renamed through ``mapping`` (dict or callable)."""
    if callable(mapping):
        rename = {node: mapping(node) for node in graph.nodes}
    else:
        rename = {node: mapping.get(node, node) for node in graph.nodes}
    if len(set(rename.values())) != len(rename):
        raise GraphError("relabel mapping must be injective")
    result = DiGraph(name=graph.name)
    for node in graph.nodes:
        result.add_node(rename[node])
    for u, v in graph.edges:
        result.add_edge(rename[u], rename[v])
    return result


# ----------------------------------------------------------------------
# registry: every family addressable by name from TopologySpec / TOML files
# ----------------------------------------------------------------------
def _register_topologies() -> None:
    for name, factory in (
        ("clique", complete_digraph),
        ("figure-1a", figure_1a),
        ("figure-1b", figure_1b),
        ("directed-cycle", directed_cycle),
        ("bidirected-cycle", bidirected_cycle),
        ("directed-path", directed_path),
        ("star-out", star_out),
        ("bidirected-star", bidirected_star),
        ("wheel", bidirected_wheel),
        ("undirected-complete", bidirected_complete),
        ("random-bidirected", random_bidirected_graph),
        ("random-digraph", random_digraph),
        ("random-k-out", random_k_out_digraph),
        ("barabasi-albert", barabasi_albert_digraph),
        ("watts-strogatz", watts_strogatz_digraph),
        ("watts-strogatz-bidirected", watts_strogatz_bidirected),
        ("configuration-model", configuration_model_digraph),
        ("stochastic-kronecker", stochastic_kronecker_digraph),
        ("two-cliques", two_cliques_bridged),
        ("clique-with-feeders", clique_with_feeders),
        ("layered-relay", layered_relay_digraph),
        ("sensor-field", directed_sensor_field),
    ):
        TOPOLOGIES.register(name, factory)


_register_topologies()

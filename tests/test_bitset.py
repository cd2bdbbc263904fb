"""Property-based tests for the shared bitmask engine (graphs/bitset.py).

The engine must agree with (a) literal frozenset/BFS transcriptions of the
paper's definitions — re-implemented here independently of the library — and
(b) the ``networkx`` oracle, on random graphs and random exclusion sets.
(a) is also checked on the full ``|F| <= f`` sweeps of the Figure 1 graphs.

The cross-backend sections at the bottom hold every registered
:data:`~repro.registry.BITSET_BACKENDS` entry to the backend contract:
identical masks and verdicts on every query (SCC emission order excepted —
any reverse topological order is legal), on random digraphs up to n=48
(n=64 for the batched closure and the 2-reach core's distinct masks,
across the numpy kernel's uint32/uint64 boundary).
"""

from __future__ import annotations

from collections import deque
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.conditions.reach_conditions import iter_subsets
from repro.exceptions import ExperimentError, UnknownPluginError
from repro.graphs.bitset import (
    BitsetIndex,
    candidate_coverages,
    has_f_cover_masks,
    iter_bits,
    prune_dominated_coverages,
)
from repro.graphs.bitset_backends import (
    ENV_VAR,
    NUMPY_MIN_NODES,
    PYTHON_BACKEND,
    BitsetBackend,
    backend_policy,
    get_backend,
    numpy_available,
)
from repro.graphs.digraph import DiGraph
from repro.graphs.generators import complete_digraph, directed_cycle, figure_1a, figure_1b
from repro.graphs.reach import (
    reach_set,
    reach_sets_for_all_nodes,
    source_component,
)
from repro.registry import BITSET_BACKENDS

SETTINGS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])

#: Parity runs fewer, larger examples — each one compares whole mask tables.
PARITY_SETTINGS = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy backend not installed (repro[fast])"
)


# ----------------------------------------------------------------------
# strategies and oracles
# ----------------------------------------------------------------------
@st.composite
def graph_and_excluded(draw, max_nodes=7):
    """A random simple digraph plus a random excluded node subset."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    graph = DiGraph(nodes=range(n))
    for u in range(n):
        for v in range(n):
            if u != v and draw(st.booleans()):
                graph.add_edge(u, v)
    excluded = {node for node in range(n) if draw(st.booleans())}
    return graph, excluded


def _to_networkx(graph: DiGraph) -> nx.DiGraph:
    oracle = nx.DiGraph()
    oracle.add_nodes_from(graph.nodes)
    oracle.add_edges_from(graph.edges)
    return oracle


def _reach_bfs(graph: DiGraph, node, excluded) -> frozenset:
    """Literal Definition 2: backward BFS in the induced subgraph."""
    excluded = set(excluded)
    seen = {node}
    queue = deque([node])
    while queue:
        current = queue.popleft()
        for pred in graph.predecessors(current):
            if pred not in excluded and pred not in seen:
                seen.add(pred)
                queue.append(pred)
    return frozenset(seen)


def _source_component_bfs(graph: DiGraph, blocked) -> frozenset:
    """Literal Definition 6: per-node forward BFS in the reduced graph."""
    blocked = set(blocked)
    everything = set(graph.nodes)
    members = set()
    for node in graph.nodes:
        seen = {node}
        queue = deque([node])
        while queue:
            current = queue.popleft()
            if current in blocked:
                continue  # outgoing edges of blocked nodes are cut
            for succ in graph.successors(current):
                if succ not in seen:
                    seen.add(succ)
                    queue.append(succ)
        if seen == everything:
            members.add(node)
    return frozenset(members)


# ----------------------------------------------------------------------
# reach masks
# ----------------------------------------------------------------------
class TestReachMasks:
    @SETTINGS
    @given(graph_and_excluded())
    def test_reach_masks_match_bfs_and_networkx(self, data):
        graph, excluded = data
        index = BitsetIndex.for_graph(graph)
        excluded_mask = index.mask_of(excluded)
        reach = index.reach_masks(excluded_mask)
        oracle = _to_networkx(graph.exclude_nodes(excluded))
        for i, node in enumerate(index.nodes):
            if node in excluded:
                assert reach[i] == 0
                continue
            decoded = index.nodes_of(reach[i])
            assert decoded == _reach_bfs(graph, node, excluded)
            assert decoded == nx.ancestors(oracle, node) | {node}

    @SETTINGS
    @given(graph_and_excluded())
    def test_reach_set_wrapper_matches_engine(self, data):
        graph, excluded = data
        outside = [node for node in graph.nodes if node not in excluded]
        batch = reach_sets_for_all_nodes(graph, excluded)
        assert set(batch) == set(outside)
        for node in outside:
            assert reach_set(graph, node, excluded) == batch[node]

    @pytest.mark.parametrize(
        "graph, f",
        [(figure_1a(), 1), (figure_1a(), 2), (figure_1b(), 1), (figure_1b(), 2)],
        ids=["figure-1a-f1", "figure-1a-f2", "figure-1b-f1", "figure-1b-f2"],
    )
    def test_figure_sweeps_match_literal_bfs(self, graph, f):
        # The sweeps the condition checkers run: all-node reach sets under
        # every |F| <= f exclusion, and source components under every
        # distinct union F1 | F2.
        index = BitsetIndex.for_graph(graph)
        fault_sets = list(iter_subsets(graph.nodes, f))
        for excluded in fault_sets:
            reach = index.reach_masks(index.mask_of(excluded))
            for i, node in enumerate(index.nodes):
                if node not in excluded:
                    assert index.nodes_of(reach[i]) == _reach_bfs(graph, node, excluded)
        unions = {f1 | f2 for f1 in fault_sets for f2 in fault_sets}
        for blocked in unions:
            mask = index.source_component_mask(index.mask_of(blocked))
            assert index.nodes_of(mask) == _source_component_bfs(graph, blocked)

    def test_reach_masks_memoised_per_exclusion(self):
        graph = figure_1a()
        index = BitsetIndex.for_graph(graph)
        first = index.reach_masks(0)
        assert index.reach_masks(0) is first
        index.clear_memos()
        assert index.memo_sizes()["reach_exclusions"] == 0


# ----------------------------------------------------------------------
# SCC and source components
# ----------------------------------------------------------------------
class TestSccAndSourceComponents:
    @SETTINGS
    @given(graph_and_excluded())
    def test_scc_masks_match_networkx(self, data):
        graph, excluded = data
        index = BitsetIndex.for_graph(graph)
        allowed_mask = index.full_mask & ~index.mask_of(excluded)
        components = {
            index.nodes_of(mask) for mask in index.scc_masks(allowed_mask)
        }
        oracle = _to_networkx(graph.exclude_nodes(excluded))
        expected = {frozenset(c) for c in nx.strongly_connected_components(oracle)}
        assert components == expected

    @SETTINGS
    @given(graph_and_excluded())
    def test_scc_masks_reverse_topological(self, data):
        graph, excluded = data
        index = BitsetIndex.for_graph(graph)
        allowed_mask = index.full_mask & ~index.mask_of(excluded)
        emitted = 0
        for mask in index.scc_masks(allowed_mask):
            # Everything a component points at (outside itself) must already
            # have been emitted — that is reverse topological order.
            for i in iter_bits(mask):
                succs = index.succ_masks[i] & allowed_mask & ~mask
                assert succs & ~emitted == 0
            emitted |= mask

    @SETTINGS
    @given(graph_and_excluded())
    def test_source_component_matches_literal_bfs(self, data):
        graph, blocked = data
        index = BitsetIndex.for_graph(graph)
        mask = index.source_component_mask(index.mask_of(blocked))
        assert index.nodes_of(mask) == _source_component_bfs(graph, blocked)
        assert index.nodes_of(mask) == source_component(graph, blocked, ())

    @SETTINGS
    @given(graph_and_excluded())
    def test_strong_connectivity_mask_matches_networkx(self, data):
        graph, subset = data
        index = BitsetIndex.for_graph(graph)
        verdict = index.is_strongly_connected_mask(index.mask_of(subset))
        if not subset:
            assert verdict is False
        else:
            oracle = _to_networkx(graph.induced_subgraph(subset))
            assert verdict == nx.is_strongly_connected(oracle)


# ----------------------------------------------------------------------
# codecs and shared instances
# ----------------------------------------------------------------------
class TestCodecsAndSharing:
    @SETTINGS
    @given(graph_and_excluded())
    def test_mask_roundtrip(self, data):
        graph, subset = data
        index = BitsetIndex.for_graph(graph)
        mask = index.mask_of(subset)
        assert index.nodes_of(mask) == frozenset(subset)
        assert mask.bit_count() == len(subset)
        assert sorted(iter_bits(mask)) == sorted(index.index[n] for n in subset)

    def test_mask_of_strict_and_lenient(self):
        index = BitsetIndex.for_graph(complete_digraph(3))
        with pytest.raises(KeyError):
            index.mask_of({99})
        assert index.mask_of({99}, ignore_missing=True) == 0

    def test_for_graph_shares_one_instance(self):
        graph = complete_digraph(4)
        assert BitsetIndex.for_graph(graph) is BitsetIndex.for_graph(graph)

    def test_for_graph_invalidates_on_mutation(self):
        graph = directed_cycle(4)
        before = BitsetIndex.for_graph(graph)
        assert reach_set(graph, 0, {3}) == frozenset({0})
        graph.add_edge(1, 0)
        after = BitsetIndex.for_graph(graph)
        assert after is not before
        assert reach_set(graph, 0, {3}) == frozenset({0, 1})


class TestEngineMemoBound:
    def test_reach_memo_evicts_beyond_limit(self, monkeypatch):
        graph = complete_digraph(6)
        index = BitsetIndex.for_graph(graph)
        monkeypatch.setattr(BitsetIndex, "MEMO_LIMIT", 4)
        for mask in range(8):
            index.reach_masks(mask)
        assert index.memo_sizes()["reach_exclusions"] <= 4
        # Evicted entries are recomputed correctly on re-query.
        assert index.nodes_of(index.reach_masks(1)[1]) == reach_set(graph, 1, {0})


class _CountingBackend:
    """Delegating backend proxy that counts the closures it is asked for."""

    def __init__(self, inner: BitsetBackend) -> None:
        self.inner = inner
        self.name = inner.name
        self.closures = 0

    def closure(self, adj, allowed_mask, n):
        self.closures += 1
        return self.inner.closure(adj, allowed_mask, n)

    def closure_many(self, adj, allowed_masks, n):
        self.closures += len(allowed_masks)
        return self.inner.closure_many(adj, allowed_masks, n)


class TestReachMasksManyBeyondMemo:
    """A batch larger than MEMO_LIMIT closes each distinct exclusion once,
    even though the memo evicts part of the batch before the call returns."""

    @pytest.mark.parametrize("backend_name", ["python", "numpy"])
    def test_closures_equal_distinct_masks(self, backend_name):
        if backend_name == "numpy" and not numpy_available():
            pytest.skip("numpy backend not installed (repro[fast])")
        graph = directed_cycle(24)
        index = BitsetIndex(graph)
        counter = _CountingBackend(BITSET_BACKENDS.get(backend_name))
        index.set_backend(counter)
        # the 12,951 exclusion sets with |X| <= 4 at n=24, plus repeats
        requests = [
            sum(1 << bit for bit in combo)
            for size in range(5)
            for combo in combinations(range(24), size)
        ]
        assert len(requests) == 12951 > BitsetIndex.MEMO_LIMIT
        rows = index.reach_masks_many(requests + requests[:100])
        assert counter.closures == len(requests)
        assert len(rows) == len(requests) + 100
        for mask in (requests[0], requests[5000], requests[-1]):
            expected = PYTHON_BACKEND.closure(
                index.pred_masks, index.full_mask & ~mask, index.n
            )
            assert rows[requests.index(mask)] == expected
        assert rows[-1] == rows[99]


# ----------------------------------------------------------------------
# cross-backend parity (the backend contract)
# ----------------------------------------------------------------------
@st.composite
def mask_digraph(draw, max_nodes=48, max_batch=0):
    """Adjacency masks of a random digraph (mask-level, so n=48 stays cheap),
    a random allowed mask, and optionally a batch of allowed masks."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    full = (1 << n) - 1
    adj = [
        draw(st.integers(min_value=0, max_value=full)) & ~(1 << i) for i in range(n)
    ]
    allowed = draw(st.integers(min_value=0, max_value=full))
    batch = []
    if max_batch:
        batch = draw(
            st.lists(
                st.integers(min_value=0, max_value=full), min_size=0, max_size=max_batch
            )
        )
    return n, adj, allowed, batch


@st.composite
def path_masks(draw, max_bits=12, max_masks=8):
    """Random path-member masks plus an f bound (f-cover parity inputs)."""
    bits = draw(st.integers(min_value=1, max_value=max_bits))
    full = (1 << bits) - 1
    masks = draw(
        st.lists(st.integers(min_value=0, max_value=full), min_size=0, max_size=max_masks)
    )
    f = draw(st.integers(min_value=0, max_value=3))
    return masks, f


def _closure_bfs(adj, allowed_mask, n):
    """Independent oracle for the backend ``closure`` contract: per-row BFS
    restricted to ``allowed_mask``; rows outside it are 0."""
    rows = []
    for i in range(n):
        if not (allowed_mask >> i) & 1:
            rows.append(0)
            continue
        seen = 1 << i
        frontier = [i]
        while frontier:
            fresh = adj[frontier.pop()] & allowed_mask & ~seen
            seen |= fresh
            frontier.extend(iter_bits(fresh))
        rows.append(seen)
    return tuple(rows)


def _word_edge_case(n):
    """A fixed :func:`mask_digraph` draw at ``n`` nodes, for the word-width
    boundaries of the numpy closure kernel (uint32 up to n=32, uint64 up to
    64): a ring with chords, and twelve allowed masks dropping a few nodes
    each, so the batch takes the vectorized path."""
    full = (1 << n) - 1
    adj = [((1 << ((i + 1) % n)) | (1 << ((7 * i + 3) % n))) & ~(1 << i) for i in range(n)]
    batch = [full & ~((1 << (j % n)) | (1 << ((5 * j + 2) % n))) for j in range(12)]
    return n, adj, full & ~(1 << (n - 1)), batch


def _f_cover_bruteforce(masks, f):
    """Literal Definition 4 oracle: try every candidate subset of size <= f."""
    if not masks:
        return True
    union = 0
    for mask in masks:
        union |= mask
    candidates = list(iter_bits(union))
    for size in range(1, f + 1):
        for combo in combinations(candidates, size):
            cover = 0
            for bit in combo:
                cover |= 1 << bit
            if all(mask & cover for mask in masks):
                return True
    return False


def _all_backends():
    return [entry.obj for entry in BITSET_BACKENDS.entries()]


class TestCoveragePruning:
    """Exact semantics of the dominated-coverage pruning helpers."""

    def test_candidate_coverages_bit_order_and_contents(self):
        masks = [0b011, 0b110, 0b010]
        # candidates in ascending bit order: 0 on path 0, 1 on all three,
        # 2 on path 1
        assert candidate_coverages(masks, 0b111) == [0b001, 0b111, 0b010]

    def test_strict_subset_is_dropped(self):
        assert prune_dominated_coverages([0b01, 0b11]) == [0b11]
        assert prune_dominated_coverages([0b11, 0b01]) == [0b11]

    def test_equal_coverages_keep_first(self):
        assert prune_dominated_coverages([0b10, 0b10, 0b01]) == [0b10, 0b01]

    def test_incomparable_coverages_all_kept(self):
        assert prune_dominated_coverages([0b011, 0b110, 0b101]) == [0b011, 0b110, 0b101]

    @PARITY_SETTINGS
    @given(path_masks(max_bits=10, max_masks=8))
    def test_pruning_preserves_f_cover_existence(self, data):
        # The pruned search (has_f_cover_masks) against the literal
        # all-subsets oracle, which never prunes.
        masks, f = data
        assert has_f_cover_masks(masks, f) is _f_cover_bruteforce(masks, f)


class TestBackendParity:
    """Every registered backend returns identical masks and verdicts."""

    @PARITY_SETTINGS
    @given(mask_digraph(max_nodes=48))
    def test_closure_parity(self, data):
        n, adj, allowed, _ = data
        expected = _closure_bfs(adj, allowed, n)
        for backend in _all_backends():
            assert backend.closure(adj, allowed, n) == expected, backend.name

    @PARITY_SETTINGS
    @given(mask_digraph(max_nodes=64, max_batch=24))
    @example(_word_edge_case(32))
    @example(_word_edge_case(33))
    @example(_word_edge_case(64))
    def test_closure_many_parity(self, data):
        n, adj, allowed, batch = data
        # max_batch crosses the numpy backend's vectorized threshold (>= 8)
        # while small draws exercise its scalar fallback too; the examples
        # sit on the numpy kernel's word-width boundaries.
        expected = [_closure_bfs(adj, mask, n) for mask in batch]
        for backend in _all_backends():
            assert backend.closure_many(adj, batch, n) == expected, backend.name

    @PARITY_SETTINGS
    @given(mask_digraph(max_nodes=64, max_batch=24))
    @example(_word_edge_case(32))
    @example(_word_edge_case(64))
    def test_distinct_reach_masks_parity(self, data):
        # The 2-reach core's existence pass: every backend returns the
        # distinct reach masks under base | P for each private set P, minus
        # 0 and the every-live-node mask, as one ascending sequence.
        n, adj, allowed, privates = data
        base = ((1 << n) - 1) & ~allowed
        graph = DiGraph(nodes=range(n))
        for i in range(n):
            for j in iter_bits(adj[i]):
                graph.add_edge(i, j)
        index = BitsetIndex(graph)
        live = index.full_mask & ~base
        expected = set()
        for private in privates:
            expected.update(_closure_bfs(index.pred_masks, live & ~private, n))
        expected -= {0, live}
        for backend in _all_backends():
            masks = backend.distinct_reach_masks(index, base, privates)
            assert [int(mask) for mask in masks] == sorted(expected), backend.name

    @PARITY_SETTINGS
    @given(mask_digraph(max_nodes=48))
    def test_scc_parity_as_sets_and_order(self, data):
        n, adj, allowed, _ = data
        reference = PYTHON_BACKEND.scc_masks(adj, allowed, n)
        for backend in _all_backends():
            components = backend.scc_masks(adj, allowed, n)
            assert sorted(components) == sorted(reference), backend.name
            emitted = 0
            for mask in components:
                for i in iter_bits(mask):
                    # reverse topological order: successors outside the
                    # component were all emitted earlier
                    assert adj[i] & allowed & ~mask & ~emitted == 0, backend.name
                emitted |= mask

    @PARITY_SETTINGS
    @given(mask_digraph(max_nodes=48))
    def test_source_component_parity(self, data):
        n, adj, blocked, _ = data
        full = (1 << n) - 1
        pred = [0] * n
        for i in range(n):
            for j in iter_bits(adj[i]):
                pred[j] |= 1 << i
        expected = PYTHON_BACKEND.source_component(adj, pred, blocked, full)
        for backend in _all_backends():
            assert backend.source_component(adj, pred, blocked, full) == expected, (
                backend.name
            )

    @PARITY_SETTINGS
    @given(path_masks())
    def test_f_cover_parity_against_bruteforce(self, data):
        masks, f = data
        expected = _f_cover_bruteforce(masks, f)
        for backend in _all_backends():
            assert backend.has_f_cover(masks, f) is expected, backend.name

    @PARITY_SETTINGS
    @given(st.lists(path_masks(max_bits=10, max_masks=6), min_size=0, max_size=5))
    def test_any_f_cover_parity(self, groups_with_f):
        groups = [masks for masks, _ in groups_with_f]
        for f in range(4):
            expected = any(_f_cover_bruteforce(masks, f) for masks in groups)
            for backend in _all_backends():
                assert backend.any_f_cover(groups, f) is expected, backend.name

    @PARITY_SETTINGS
    @given(
        st.lists(st.integers(min_value=0, max_value=(1 << 48) - 1), max_size=40)
    )
    def test_find_disjoint_pair_parity(self, masks):
        # The contract pins the exact pair, not just existence: violation
        # witnesses and checks_performed accounting depend on the position.
        expected = PYTHON_BACKEND.find_disjoint_pair(masks)
        for backend in _all_backends():
            assert backend.find_disjoint_pair(masks) == expected, backend.name
        if expected is not None:
            a, b = expected
            assert a < b and masks[a] & masks[b] == 0
            for i, j in combinations(range(len(masks)), 2):
                if masks[i] & masks[j] == 0:
                    assert (i, j) == (a, b)
                    break

    @needs_numpy
    def test_index_level_parity_on_large_graph(self):
        """End to end through BitsetIndex: same graph, both backends, same
        reach tables / SCC sets / source components at n=32 (above the
        auto-selection threshold)."""
        rng_edges = [(i, (i * 7 + offset) % 32) for i in range(32) for offset in (1, 3, 9)]
        graph = DiGraph(nodes=range(32))
        for u, v in rng_edges:
            if u != v:
                graph.add_edge(u, v)
        results = {}
        for name in ("python", "numpy"):
            index = BitsetIndex(graph)
            index.set_backend(name)
            reaches = index.reach_masks_many([0, 1, 0b1010, (1 << 13) - 1])
            sccs = sorted(index.scc_masks())
            source = index.source_component_mask(0b110)
            results[name] = (reaches, sccs, source)
        assert results["python"] == results["numpy"]


class TestBackendSelection:
    """get_backend / backend_policy: env override, auto thresholds, errors."""

    def test_auto_thresholds(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert get_backend(NUMPY_MIN_NODES - 1) is PYTHON_BACKEND
        large = get_backend(NUMPY_MIN_NODES)
        if numpy_available():
            assert large.name == "numpy"
        else:
            assert large is PYTHON_BACKEND

    def test_explicit_python_wins_at_any_size(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "python")
        assert get_backend(10_000) is PYTHON_BACKEND
        assert backend_policy() == "python"

    def test_auto_keyword_means_automatic(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "auto")
        assert get_backend(1) is PYTHON_BACKEND
        assert backend_policy().startswith("auto(")

    def test_unknown_backend_did_you_mean(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "pythn")
        with pytest.raises(UnknownPluginError, match="did you mean 'python'"):
            get_backend(5)

    def test_explicit_numpy_without_numpy_raises(self, monkeypatch):
        import repro.graphs.bitset_backends as backends_module

        monkeypatch.setenv(ENV_VAR, "numpy")
        monkeypatch.setattr(backends_module, "NUMPY_BACKEND", None)
        with pytest.raises(ExperimentError, match=r"repro\[fast\]"):
            get_backend(48)

    def test_temporarily_registered_backend_resolves(self, monkeypatch):
        class StubBackend(BitsetBackend):
            name = "stub"

        stub = StubBackend()
        monkeypatch.setenv(ENV_VAR, "stub")
        with BITSET_BACKENDS.temporarily("stub", stub):
            assert get_backend(3) is stub
            assert backend_policy() == "stub"

    def test_index_set_backend_clears_memos(self):
        graph = figure_1a()
        index = BitsetIndex(graph)
        before = index.reach_masks(0)
        index.set_backend("python")
        assert index.memo_sizes()["reach_exclusions"] == 0
        assert index.backend is PYTHON_BACKEND
        assert index.reach_masks(0) == before


class TestImportOrder:
    """The numpy backend registers whichever bitset module is imported
    first (each order runs in a fresh interpreter)."""

    @needs_numpy
    @pytest.mark.parametrize(
        "first",
        ["repro.graphs.bitset_numpy", "repro.graphs.bitset_backends"],
    )
    def test_numpy_registers_in_either_order(self, first):
        import os
        import subprocess
        import sys

        code = (
            f"import {first}\n"
            "from repro.graphs.bitset_backends import numpy_available\n"
            "from repro.registry import BITSET_BACKENDS\n"
            "print(numpy_available(), 'numpy' in BITSET_BACKENDS.names())\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        )
        assert result.stdout.split() == ["True", "True"]


@needs_numpy
class TestCrossBackendArtifacts:
    """The payoff of the backend contract: whole sweep artifacts are
    byte-identical whichever backend computed them."""

    def _payload_under(self, monkeypatch, backend_name):
        from repro.runner.artifacts import artifact_payload, dumps_canonical
        from repro.runner.session import ExperimentSession
        from repro.runner.scenarios import clear_worker_caches, get_scenario

        monkeypatch.setenv(ENV_VAR, backend_name)
        clear_worker_caches()
        try:
            result = ExperimentSession(get_scenario("definition1").grid(quick=True)).run()
            # Fixed provenance: the environment block (deliberately) records
            # the backend policy, so identity is asserted over the computed
            # content — spec, cells, groups, totals.
            payload = artifact_payload(
                result,
                mode="quick",
                provenance={"environment": {"pinned": "env"}, "git": None},
            )
            return dumps_canonical(payload)
        finally:
            clear_worker_caches()

    def test_quick_scenario_artifact_is_byte_identical(self, monkeypatch):
        python_text = self._payload_under(monkeypatch, "python")
        numpy_text = self._payload_under(monkeypatch, "numpy")
        assert python_text == numpy_text

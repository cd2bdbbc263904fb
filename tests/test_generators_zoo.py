"""The topology zoo: seeded scale-free / small-world / prescribed-degree /
Kronecker families.

Covers, for every zoo generator: seed determinism (same seed → identical
edge set, fresh seed → fresh sample), directedness semantics, a
structural oracle (degree law, rewire fraction, Kronecker limit cases —
``networkx`` as the reference where its construction is deterministic),
the uniform parameter-validation contract (:class:`GraphError` naming
the family and parameter), and a build-throughput floor at sweep-typical
sizes.  The ``ensure_connected`` flag is exercised uniformly across *all*
random families.
"""

from __future__ import annotations

import time

import networkx as nx
import pytest

from repro.exceptions import GraphError
from repro.graphs.digraph import DiGraph
from repro.graphs.generators import (
    barabasi_albert_digraph,
    configuration_model_digraph,
    random_bidirected_graph,
    random_digraph,
    random_k_out_digraph,
    stochastic_kronecker_digraph,
    watts_strogatz_bidirected,
    watts_strogatz_digraph,
)
from repro.registry import TOPOLOGIES

ZOO_NAMES = (
    "barabasi-albert",
    "watts-strogatz",
    "watts-strogatz-bidirected",
    "configuration-model",
    "stochastic-kronecker",
)

#: family -> kwargs for a representative sample; every callable accepts
#: ``seed`` and ``ensure_connected`` on top of these.
RANDOM_FAMILIES = {
    "random-digraph": (random_digraph, {"n": 12, "p": 0.15}),
    "random-bidirected": (random_bidirected_graph, {"n": 12, "p": 0.15}),
    "random-k-out": (random_k_out_digraph, {"n": 12, "k": 2}),
    "barabasi-albert": (barabasi_albert_digraph, {"n": 14, "m": 2}),
    "watts-strogatz": (watts_strogatz_digraph, {"n": 14, "k": 4, "beta": 0.3}),
    "watts-strogatz-bidirected": (
        watts_strogatz_bidirected,
        {"n": 14, "k": 4, "beta": 0.3},
    ),
    "configuration-model": (
        configuration_model_digraph,
        {"out_degrees": "3,3,2,2,1,1", "in_degrees": "2,2,2,2,2,2"},
    ),
    "stochastic-kronecker": (stochastic_kronecker_digraph, {"k": 4}),
}


#: family -> kwargs at sweep-typical sizes (48 nodes; Kronecker 2^6 = 64).
SWEEP_SIZED = {
    "barabasi-albert": {"n": 48, "m": 3},
    "watts-strogatz": {"n": 48, "k": 6, "beta": 0.3},
    "watts-strogatz-bidirected": {"n": 48, "k": 6, "beta": 0.3},
    "configuration-model": {"out_degrees": [3] * 48, "in_degrees": [3] * 48},
    "stochastic-kronecker": {"k": 6},
}


def edge_set(graph: DiGraph) -> set:
    return set(graph.edges)


class TestRegistryAndDeterminism:
    def test_zoo_families_registered(self):
        for name in ZOO_NAMES:
            assert TOPOLOGIES.get(name) is RANDOM_FAMILIES[name][0]

    @pytest.mark.parametrize("family", sorted(RANDOM_FAMILIES))
    def test_same_seed_same_graph(self, family):
        factory, kwargs = RANDOM_FAMILIES[family]
        first = factory(seed=1234, **kwargs)
        second = factory(seed=1234, **kwargs)
        assert edge_set(first) == edge_set(second)
        assert list(first.nodes) == list(second.nodes)

    @pytest.mark.parametrize("family", sorted(RANDOM_FAMILIES))
    def test_fresh_seed_fresh_sample(self, family):
        factory, kwargs = RANDOM_FAMILIES[family]
        samples = {frozenset(edge_set(factory(seed=seed, **kwargs))) for seed in range(8)}
        assert len(samples) > 1, f"{family} ignored its seed"

    @pytest.mark.parametrize("family", sorted(RANDOM_FAMILIES))
    def test_ensure_connected_uniformly_supported(self, family):
        factory, kwargs = RANDOM_FAMILIES[family]
        for seed in range(5):
            graph = factory(seed=seed, ensure_connected=True, **kwargs)
            assert graph.is_strongly_connected(), f"{family} seed={seed}"

    @pytest.mark.parametrize("family", sorted(RANDOM_FAMILIES))
    def test_ensure_connected_defaults_off(self, family):
        factory, kwargs = RANDOM_FAMILIES[family]
        assert edge_set(factory(seed=7, **kwargs)) == edge_set(
            factory(seed=7, ensure_connected=False, **kwargs)
        )


class TestBuildThroughput:
    @pytest.mark.parametrize("family", ZOO_NAMES)
    def test_builds_at_least_50_graphs_per_second(self, family):
        # Graph construction must stay an afterthought inside phase sweeps:
        # best of three batches of 40 seeded builds.
        factory = RANDOM_FAMILIES[family][0]
        kwargs = SWEEP_SIZED[family]
        best_s = float("inf")
        for _repeat in range(3):
            start = time.perf_counter()
            for seed in range(40):
                factory(seed=seed, **kwargs)
            best_s = min(best_s, time.perf_counter() - start)
        assert 40 / best_s >= 50.0, f"{family}: {40 / best_s:.1f} graphs/s"


class TestBarabasiAlbert:
    def test_newcomer_out_degree_is_exactly_m(self):
        n, m = 20, 3
        graph = barabasi_albert_digraph(n, m, seed=5)
        core = m + 1
        for u in range(core, n):
            out = sum(1 for v in range(n) if graph.has_edge(u, v))
            assert out == m
        assert graph.num_edges == core * (core - 1) + (n - core) * m

    def test_core_is_bidirected_newcomer_edges_one_way(self):
        graph = barabasi_albert_digraph(20, 2, seed=5)
        for u in range(3):
            for v in range(3):
                if u != v:
                    assert graph.has_edge(u, v)
        one_way = [
            (u, v) for (u, v) in graph.edges if u >= 3 and not graph.has_edge(v, u)
        ]
        assert one_way, "newcomer edges must not be symmetrized"

    def test_preferential_attachment_favours_old_nodes(self):
        # The rich-get-richer law: averaged over seeds, the oldest non-core
        # nodes accumulate strictly more total degree than the youngest.
        n, m, seeds = 40, 2, range(10)
        old_total = young_total = 0
        for seed in seeds:
            graph = barabasi_albert_digraph(n, m, seed=seed)
            degree = {u: 0 for u in range(n)}
            for u, v in graph.edges:
                degree[u] += 1
                degree[v] += 1
            old_total += sum(degree[u] for u in range(m + 1, m + 6))
            young_total += sum(degree[u] for u in range(n - 5, n))
        assert old_total > young_total


class TestWattsStrogatz:
    def test_beta_zero_is_exact_ring_lattice(self):
        n, k = 12, 4
        graph = watts_strogatz_digraph(n, k, 0.0, seed=3)
        expected = {
            (u, (u + offset) % n) for offset in (1, 2) for u in range(n)
        }
        assert edge_set(graph) == expected

    def test_bidirected_beta_zero_matches_networkx(self):
        n, k = 12, 4
        graph = watts_strogatz_bidirected(n, k, 0.0, seed=3)
        oracle = nx.watts_strogatz_graph(n, k, 0.0)
        expected = {(u, v) for u, v in oracle.edges} | {
            (v, u) for u, v in oracle.edges
        }
        assert edge_set(graph) == expected

    def test_out_degree_preserved_under_rewiring(self):
        n, k = 16, 4
        graph = watts_strogatz_digraph(n, k, 0.7, seed=9)
        for u in range(n):
            out = sum(1 for v in range(n) if graph.has_edge(u, v))
            assert out == k // 2

    def test_rewired_fraction_grows_with_beta(self):
        n, k = 24, 4
        lattice = {(u, (u + offset) % n) for offset in (1, 2) for u in range(n)}

        def rewired(beta: float) -> int:
            total = 0
            for seed in range(8):
                graph = watts_strogatz_digraph(n, k, beta, seed=seed)
                total += len(edge_set(graph) - lattice)
            return total

        low, high = rewired(0.1), rewired(0.9)
        assert 0 < low < high

    def test_bidirected_edges_are_symmetric(self):
        graph = watts_strogatz_bidirected(14, 4, 0.5, seed=11)
        for u, v in graph.edges:
            assert graph.has_edge(v, u)


class TestConfigurationModel:
    def test_realized_degrees_bounded_by_prescription(self):
        outs, ins = [3, 3, 2, 2, 1, 1], [2, 2, 2, 2, 2, 2]
        for seed in range(6):
            graph = configuration_model_digraph(outs, ins, seed=seed)
            for u in range(6):
                out = sum(1 for v in range(6) if graph.has_edge(u, v))
                into = sum(1 for v in range(6) if graph.has_edge(v, u))
                assert out <= outs[u]
                assert into <= ins[u]

    def test_string_form_equals_list_form(self):
        from_list = configuration_model_digraph([3, 3, 2, 2], [2, 3, 3, 2], seed=4)
        from_string = configuration_model_digraph("3,3,2,2", "2,3,3,2", seed=4)
        assert edge_set(from_list) == edge_set(from_string)


class TestStochasticKronecker:
    def test_node_count_is_two_to_the_k(self):
        for k in (1, 2, 3, 5):
            assert stochastic_kronecker_digraph(k, seed=0).num_nodes == 2 ** k

    def test_all_one_initiator_is_complete(self):
        graph = stochastic_kronecker_digraph(3, a=1.0, b=1.0, c=1.0, d=1.0, seed=0)
        n = 8
        assert graph.num_edges == n * (n - 1)

    def test_all_zero_initiator_is_empty(self):
        graph = stochastic_kronecker_digraph(3, a=0.0, b=0.0, c=0.0, d=0.0, seed=0)
        assert graph.num_edges == 0

    def test_core_periphery_shape(self):
        # a > d: the all-zero-bits node sits in the dense core, the
        # all-one-bits node in the sparse periphery (averaged over seeds).
        k, n = 4, 16
        core_total = periphery_total = 0
        for seed in range(10):
            graph = stochastic_kronecker_digraph(k, seed=seed)
            degree = {u: 0 for u in range(n)}
            for u, v in graph.edges:
                degree[u] += 1
                degree[v] += 1
            core_total += degree[0]
            periphery_total += degree[n - 1]
        assert core_total > periphery_total

    def test_asymmetric_initiator_yields_directed_edges(self):
        graph = stochastic_kronecker_digraph(4, b=0.8, c=0.2, seed=2)
        asymmetric = [(u, v) for u, v in graph.edges if not graph.has_edge(v, u)]
        assert asymmetric


class TestValidation:
    @pytest.mark.parametrize(
        "factory, kwargs, fragment",
        [
            (barabasi_albert_digraph, {"n": 1, "m": 1}, "barabasi-albert"),
            (barabasi_albert_digraph, {"n": 5, "m": 0}, "'m'"),
            (barabasi_albert_digraph, {"n": 5, "m": 5}, "'m'"),
            (watts_strogatz_digraph, {"n": 2, "k": 2, "beta": 0.5}, "'n'"),
            (watts_strogatz_digraph, {"n": 8, "k": 3, "beta": 0.5}, "even"),
            (watts_strogatz_digraph, {"n": 8, "k": 8, "beta": 0.5}, "'k'"),
            (watts_strogatz_digraph, {"n": 8, "k": 4, "beta": 1.5}, "'beta'"),
            (
                watts_strogatz_bidirected,
                {"n": 8, "k": 3, "beta": 0.5},
                "watts-strogatz-bidirected",
            ),
            (
                configuration_model_digraph,
                {"out_degrees": "1,1", "in_degrees": "1,1,0"},
                "same length",
            ),
            (
                configuration_model_digraph,
                {"out_degrees": "2,1", "in_degrees": "1,1"},
                "must sum",
            ),
            (
                configuration_model_digraph,
                {"out_degrees": "5,0", "in_degrees": "2,3"},
                "below n",
            ),
            (
                configuration_model_digraph,
                {"out_degrees": "a,b", "in_degrees": "1,1"},
                "comma-separated",
            ),
            (
                configuration_model_digraph,
                {"out_degrees": 7, "in_degrees": "1,1"},
                "degree sequence",
            ),
            (stochastic_kronecker_digraph, {"k": 0}, "'k'"),
            (stochastic_kronecker_digraph, {"k": 11}, "'k'"),
            (stochastic_kronecker_digraph, {"k": 2.5}, "integer"),
            (stochastic_kronecker_digraph, {"k": 3, "a": 1.5}, "'a'"),
            (stochastic_kronecker_digraph, {"k": 3, "d": -0.1}, "'d'"),
        ],
    )
    def test_bad_parameters_raise_graph_error(self, factory, kwargs, fragment):
        with pytest.raises(GraphError) as error:
            factory(**kwargs)
        assert fragment in str(error.value)

    def test_validation_raises_before_any_sampling(self):
        # The grid layer calls validate_params() in the parent process; the
        # factories must raise on bad params without consuming the RNG.
        with pytest.raises(GraphError):
            barabasi_albert_digraph(5, 9, seed=1)

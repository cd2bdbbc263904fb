"""Hot-path overhaul regression tests.

Three families of guarantees introduced by the bitmask/slot-compiled/cached
fast paths:

* the mask-indexed :class:`~repro.algorithms.messagesets.MessageSet` and the
  mask-level f-cover search agree with straightforward tuple/set reference
  implementations over randomized inputs (including forged, non-graph hops);
* the tuple-heap simulator core reproduces the exact delivery schedule of
  the dataclass-heap implementation (golden trace pinned before the
  rewrite) and stops on the event on which the last awaited node decides;
* sharded sweeps with the per-worker topology cache and pre-fork warm-up
  stay byte-identical to serial runs.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from _oracles import literal_filter_and_average
from repro.algorithms.base import ConsensusConfig
from repro.algorithms.bw import BWProcess
from repro.algorithms.filter_average import filter_and_average
from repro.algorithms.messagesets import MessageSet, PathTable
from repro.algorithms.topology import TopologyKnowledge
from repro.graphs.bitset import PathCodec, has_f_cover_masks
from repro.graphs.generators import complete_digraph
from repro.graphs.paths import find_f_cover, is_redundant, is_simple
from repro.network.delays import UniformDelay
from repro.network.node import Process
from repro.network.simulator import Simulator
from repro.runner.artifacts import artifact_payload
from repro.runner.harness import GridSpec, TopologySpec
from repro.runner.scenarios import run_cell
from repro.runner.session import ExperimentSession
from repro.runner.worker_cache import (
    cached_graph,
    cached_topology_knowledge,
    clear_worker_caches,
    warm_worker_caches,
    worker_cache_stats,
)


# ----------------------------------------------------------------------
# reference implementations (straight transcriptions of Definitions 7–9)
# ----------------------------------------------------------------------
class ReferenceMessageSet:
    """Tuple/set reference for MessageSet (the pre-bitmask semantics)."""

    def __init__(self):
        self.by_path = {}

    def add(self, value, path):
        path = tuple(path)
        if path in self.by_path:
            return False
        self.by_path[path] = float(value)
        return True

    def exclude(self, excluded):
        excluded = set(excluded)
        result = ReferenceMessageSet()
        for path, value in self.by_path.items():
            if not excluded.intersection(path):
                result.add(value, path)
        return result

    def is_consistent(self):
        seen = {}
        for path, value in self.by_path.items():
            if path[0] in seen:
                if seen[path[0]] != value:
                    return False
            else:
                seen[path[0]] = value
        return True

    def value_of(self, origin):
        for path, value in self.by_path.items():
            if path[0] == origin:
                return value
        return None

    def value_map(self):
        result = {}
        for path, value in self.by_path.items():
            result.setdefault(path[0], value)
        return result

    def is_full_for(self, required):
        return all(tuple(path) in self.by_path for path in required)

    def paths_from_with_value(self, origin, value):
        return [p for p in self.by_path if p[0] == origin and self.by_path[p] == value]


def _random_paths(rng, universe, count):
    paths = []
    for _ in range(count):
        length = rng.randint(1, 6)
        paths.append(tuple(rng.choice(universe) for _ in range(length)))
    return paths


class TestMessageSetAgainstReference:
    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_operations_agree(self, seed):
        rng = random.Random(seed)
        # Mixed universe: graph-like ints plus forged string hops.
        universe = [0, 1, 2, 3, 4, "forged-a", "forged-b"]
        fast, reference = MessageSet(), ReferenceMessageSet()
        for path in _random_paths(rng, universe, 60):
            value = rng.choice([0.0, 0.5, 1.0])
            assert fast.add(value, path) == reference.add(value, path)

        assert {p: v for v, p in fast.entries()} == reference.by_path
        assert fast.is_consistent() == reference.is_consistent()
        assert fast.value_map() == reference.value_map()
        for origin in universe:
            assert fast.value_of(origin) == reference.value_of(origin)
            for value in (0.0, 0.5, 1.0):
                assert sorted(map(repr, fast.paths_from_with_value(origin, value))) == sorted(
                    map(repr, reference.paths_from_with_value(origin, value))
                )

        for _ in range(10):
            excluded = rng.sample(universe, rng.randint(0, 4))
            fast_restricted = fast.exclude(excluded)
            ref_restricted = reference.exclude(excluded)
            assert {p: v for v, p in fast_restricted.entries()} == ref_restricted.by_path
            assert fast_restricted.is_consistent() == ref_restricted.is_consistent()
            assert fast_restricted.value_map() == ref_restricted.value_map()

        required = _random_paths(rng, universe, 5) + list(reference.by_path)[:3]
        assert fast.is_full_for(required) == reference.is_full_for(required)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("table", ["private", "shared", "shared+forged"])
    def test_sorted_entries_match_the_tuple_sort(self, seed, table):
        # Filter-and-Average's order: the id sort of a shared table's
        # lexicographic range, and the tuple sort of a private table or of
        # forged paths interned beyond that range, both equal
        # sorted(zip(values, paths)) of a tuple-keyed reference.
        rng = random.Random(500 + seed)
        node = 0
        knowledge = TopologyKnowledge(complete_digraph(4), 1, "redundant")
        honest = sorted(knowledge.required_paths(node, frozenset()))
        paths = [(node,)] + rng.sample(honest[1:], 30)
        if table == "private":
            fast = MessageSet()
        else:
            fast = MessageSet(codec=knowledge.path_codec, table=knowledge.path_table())
        if table == "shared+forged":
            # Forged hops (7, 8) lie beyond the graph, yet compare with its ints.
            paths += [(7, node), (8, 2, node), (1, 7, node), (3, 8, 1, node), (2, 1, 7, node)]
        rng.shuffle(paths)
        reference = ReferenceMessageSet()
        for path in paths:
            value = rng.choice([0.0, 0.25, 0.5, 1.0])  # heavy ties
            assert fast.add(value, path) == reference.add(value, path)

        expected = sorted(zip(reference.by_path.values(), reference.by_path))
        # Filter-and-Average reads this order one value group at a time.
        assert fast.values_ascending() == sorted({value for value, _ in expected})
        for value in fast.values_ascending():
            group = [path for stored, path in expected if stored == value]
            masks = [fast.codec.member_mask(path) for path in group]
            assert fast.value_group(value) == ([value] * len(group), masks)
            assert sorted(fast.group_masks(value)) == sorted(masks)
        for f in (1, 2):
            result = filter_and_average(fast, f, node)
            assert (result.new_value, result.trimmed_low, result.trimmed_high) == (
                literal_filter_and_average(expected, f, node)[:3]
            )

    def test_incomparable_paths_sort_as_tuples(self):
        # Hops of mixed types admit no lexicographic numbering: the table's
        # range is empty and the set falls back to the tuple sort.
        table = PathTable.lexicographic([(1, "a"), ("a",), (1,)])
        assert table.ordered == 0 and len(table) == 3
        fast = MessageSet(table=table)
        for value, path in [(0.5, (1, "a")), (0.25, ("a",)), (0.5, (1,))]:
            fast.add(value, path)
        assert fast.values_ascending() == [0.25, 0.5]
        masks = [fast.codec.member_mask(path) for path in [(1,), (1, "a")]]
        assert fast.value_group(0.5) == ([0.5, 0.5], masks)

    @pytest.mark.parametrize("seed", range(10))
    def test_mask_f_cover_matches_tuple_f_cover(self, seed):
        rng = random.Random(100 + seed)
        universe = list(range(8))
        codec = PathCodec()
        for f in (0, 1, 2, 3):
            paths = _random_paths(rng, universe, rng.randint(0, 8))
            forbidden = set(rng.sample(universe, rng.randint(0, 3)))
            forbidden_mask = codec.mask_of(forbidden, only_known=False)
            masks = [codec.member_mask(p) & ~forbidden_mask for p in paths]
            expected = find_f_cover(paths, f, forbidden=forbidden) is not None
            assert has_f_cover_masks(masks, f) == expected

    @pytest.mark.parametrize("seed", range(6))
    def test_mask_f_cover_with_heavy_domination(self, seed):
        # Adversarial inputs for the dominated-coverage pruning: duplicated
        # paths (equal coverages) and sub-paths (strict coverage subsets)
        # must not change the verdict relative to the tuple-level oracle.
        rng = random.Random(900 + seed)
        universe = list(range(8))
        codec = PathCodec()
        for f in (1, 2, 3):
            base = _random_paths(rng, universe, rng.randint(1, 5))
            paths = list(base)
            for path in base:
                paths.append(path)  # duplicate: equal coverage columns
                if len(path) > 1:
                    paths.append(path[: rng.randint(1, len(path) - 1)])
            rng.shuffle(paths)
            masks = [codec.member_mask(p) for p in paths]
            expected = find_f_cover(paths, f) is not None
            assert has_f_cover_masks(masks, f) == expected


class TestPathCodec:
    def test_encode_returns_origin_mask_and_tuple(self):
        codec = PathCodec({"a": 0, "b": 1})
        origin, mask, path = codec.encode(["a", "x", "b"])
        assert origin == "a"
        assert path == ("a", "x", "b")
        assert mask == (1 << 0) | (1 << 1) | (1 << codec.index["x"])

    def test_forged_nodes_intern_beyond_seed_bits(self):
        codec = PathCodec({"a": 0, "b": 1})
        assert codec.bit("forged") == 2
        assert codec.bit("forged") == 2  # stable
        assert codec.mask_of(["missing"], only_known=True) == 0

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            PathCodec().encode(())


class TestForwardTargetsOracle:
    """The mask-based relay test must match is_redundant / is_simple exactly."""

    @pytest.mark.parametrize("policy", ["redundant", "simple"])
    def test_against_path_predicate(self, policy):
        graph = complete_digraph(5)
        config = ConsensusConfig(f=1, epsilon=0.25, input_low=0.0, input_high=1.0,
                                 path_policy=policy)
        topology = TopologyKnowledge(graph, 1, policy)
        process = BWProcess(2, graph, 0.5, config, topology=topology)

        # Bind a fake context so the neighbour list exists.
        class Ctx:
            out_neighbors = frozenset(n for n in graph.nodes if n != 2)
            in_neighbors = frozenset(n for n in graph.nodes if n != 2)

            def _send(self, *args):
                raise AssertionError("no sends expected")

        process.context = Ctx()
        predicate = is_simple if policy == "simple" else is_redundant
        rng = random.Random(7)
        checked = 0
        for _ in range(300):
            length = rng.randint(1, 6)
            path = tuple(rng.choice(range(5)) for _ in range(length - 1)) + (2,)
            if not predicate(path):
                continue  # relay only happens for policy-conforming paths
            expected = [n for n in sorted(Ctx.out_neighbors, key=repr) if predicate(path + (n,))]
            mask = process._path_record(path)[1]
            assert process._forward_targets_uncached(path, mask) == expected
            checked += 1
        assert checked > 50


# ----------------------------------------------------------------------
# simulator equivalence
# ----------------------------------------------------------------------
#: SHA-256 of the delivery trace recorded by the pre-rewrite (frozen
#: dataclass heap) simulator for the exact scenario below.
GOLDEN_TRACE_SHA256 = "b49e41dc712ae93caf2cb3c5bd01cd8057291299c676eb5d940d79de9b97bd29"


def _run_trace_scenario(decide_at=None, **run_kwargs):
    """The golden scenario; the node handling delivery ``decide_at`` (if
    given) decides on it."""
    trace = []

    class Seeder(Process):
        def on_start(self):
            self.broadcast(("seed", 0))

        def on_message(self, sender, payload):
            trace.append((round(self.require_context().now, 9), sender, self.node_id, payload))
            if len(trace) == decide_at:
                self.decide(payload)
            if len(payload) < 4:
                self.broadcast(payload + (self.node_id,))

    class Echo(Seeder):
        def on_start(self):
            pass

    simulator = Simulator(complete_digraph(4), UniformDelay(0.5, 2.0), seed=1234)
    simulator.add_processes([Seeder(0), Echo(1), Echo(2), Echo(3)])
    stats = simulator.run(max_events=40, **run_kwargs)
    return trace, stats


class TestSimulatorEquivalence:
    def test_tuple_heap_reproduces_golden_trace(self):
        trace, stats = _run_trace_scenario()
        assert stats.delivered_messages == 39
        assert round(stats.final_time, 9) == 4.624589522
        assert hashlib.sha256(repr(trace).encode()).hexdigest() == GOLDEN_TRACE_SHA256

    def test_run_stops_after_the_deciding_event(self):
        golden, _ = _run_trace_scenario()
        decider = golden[2][2]  # the receiver of the 3rd delivery
        trace, stats = _run_trace_scenario(decide_at=3, until_decided=[decider])
        assert trace == golden[:3]
        assert stats.delivered_messages == 3 and not stats.terminated_early
        # Decisions of nodes the run does not wait for do not stop it.
        others = [node for node in range(4) if node != decider]
        trace, _ = _run_trace_scenario(decide_at=3, until_decided=others)
        assert trace == golden


# ----------------------------------------------------------------------
# worker topology cache + sharded byte-identity
# ----------------------------------------------------------------------
class TestWorkerTopologyCache:
    def test_cache_returns_shared_instances(self):
        clear_worker_caches()
        spec = TopologySpec.make("clique", n=4)
        assert cached_graph(spec) is cached_graph(spec)
        knowledge = cached_topology_knowledge(spec, 1, "redundant")
        assert cached_topology_knowledge(spec, 1, "redundant") is knowledge
        assert cached_topology_knowledge(spec, 1, "simple") is not knowledge
        stats = worker_cache_stats()
        assert stats["graphs"] == 1 and stats["knowledge"] == 2
        clear_worker_caches()
        assert worker_cache_stats() == {"graphs": 0, "knowledge": 0}

    def test_warm_worker_caches_builds_cell_dependencies(self):
        clear_worker_caches()
        spec = GridSpec(
            name="warm_probe",
            algorithms=("bw",),
            topologies=(TopologySpec.make("clique", n=4),),
            f_values=(1,),
            behaviors=("crash",),
            placements=("random",),
            seeds=(1,),
            epsilon=0.25,
            path_policy="redundant",
        )
        warm_worker_caches(spec, spec.expand())
        stats = worker_cache_stats()
        assert stats["graphs"] == 1 and stats["knowledge"] == 1

    @staticmethod
    def _sampled_grid(*topologies):
        return GridSpec(
            name="sample_probe",
            algorithms=("bw",),
            topologies=topologies,
            f_values=(1,),
            behaviors=("crash",),
            placements=("random",),
            seeds=(1, 2, 3),
            epsilon=0.25,
            path_policy="simple",
        )

    def test_a_cell_seeded_cell_drops_its_sample(self):
        clear_worker_caches()
        fixed = TopologySpec.make("clique", n=4)
        cached_topology_knowledge(fixed, 1, "simple")
        spec = self._sampled_grid(TopologySpec.make("random-digraph", n=5, p=1.0, seed="cell"))
        for cell in spec.expand():
            assert run_cell(spec, cell).success
            # Only the fixed topology's graph and knowledge are left.
            assert worker_cache_stats() == {"graphs": 1, "knowledge": 1}
        clear_worker_caches()

    def test_a_fixed_topology_cell_keeps_its_graph_and_knowledge(self):
        clear_worker_caches()
        topology = TopologySpec.make("clique", n=4)
        spec = self._sampled_grid(topology)
        cell = spec.expand()[0]
        assert run_cell(spec, cell).success
        assert worker_cache_stats() == {"graphs": 1, "knowledge": 1}
        graph = cached_graph(topology)
        knowledge = cached_topology_knowledge(topology, 1, "simple")
        assert run_cell(spec, spec.expand()[1]).success
        assert cached_graph(topology) is graph
        assert cached_topology_knowledge(topology, 1, "simple") is knowledge
        clear_worker_caches()

    def test_warm_worker_caches_warms_the_first_sample_of_each_recipe(self):
        clear_worker_caches()
        spec = self._sampled_grid(
            TopologySpec.make("random-digraph", n=5, p=1.0, seed="cell"),
            TopologySpec.make("random-digraph", n=5, p=0.9, seed="cell"),
        )
        cells = spec.expand()
        warm_worker_caches(spec, cells)
        assert worker_cache_stats() == {"graphs": 2, "knowledge": 2}
        firsts = {}
        for cell in cells:
            firsts.setdefault(cell.topology, cell)
        for cell in firsts.values():
            graph = cached_graph(cell.resolved_topology)
            knowledge = cached_topology_knowledge(cell.resolved_topology, 1, "simple")
            assert knowledge.graph is graph
        assert worker_cache_stats() == {"graphs": 2, "knowledge": 2}  # no sample rebuilt
        clear_worker_caches()

    def test_sharded_run_with_cache_is_byte_identical_to_serial(self):
        spec = GridSpec(
            name="hotpath_identity",
            algorithms=("bw", "crash"),
            topologies=(
                TopologySpec.make("clique", n=4),
                TopologySpec.make("figure-1a"),
            ),
            f_values=(1,),
            behaviors=("crash", "fixed-high"),
            placements=("random",),
            seeds=(1, 2),
            epsilon=0.25,
            path_policy="simple",
        )
        clear_worker_caches()
        serial = ExperimentSession(spec).run()
        # Warm cache on purpose: identity must hold regardless of cache state.
        sharded = ExperimentSession(spec, workers=2).run()
        assert artifact_payload(serial, mode="full") == artifact_payload(sharded, mode="full")

"""Unit tests for the Completeness condition (Algorithm 2)."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms.completeness import completeness, completeness_deficit
from repro.algorithms.messagesets import MessageSet
from repro.algorithms.topology import TopologyKnowledge
from repro.graphs.generators import complete_digraph, figure_1a
from repro.graphs.paths import enumerate_simple_paths_to


@pytest.fixture(scope="module")
def topology4():
    return TopologyKnowledge(complete_digraph(4), 1, "redundant")


def fill_from_all_paths(topology, node, values):
    """Build a message set as if every redundant path delivered the origin's value."""
    message_set = MessageSet()
    for path in topology.required_paths(node, frozenset()):
        message_set.add(values[path[0]], path)
    return message_set


class TestCompleteness:
    def test_complete_when_every_value_confirmed_from_everywhere(self, topology4):
        values = {0: 0.0, 1: 1.0, 2: 2.0, 3: 3.0}
        message_set = fill_from_all_paths(topology4, 0, values)
        assert completeness(message_set, values, frozenset({3}), topology4, evaluating_node=0)

    def test_incomplete_when_witness_misses_a_source_value(self, topology4):
        values = {0: 0.0, 1: 1.0, 2: 2.0, 3: 3.0}
        message_set = fill_from_all_paths(topology4, 0, values)
        witness_values = {0: 0.0, 1: 1.0}  # missing source-component members
        assert not completeness(message_set, witness_values, frozenset({3}), topology4, 0)

    def test_incomplete_when_local_confirmations_are_coverable(self, topology4):
        # Node 0 only heard node 2's value through paths whose second-to-last
        # hop is node 1, so the single fault candidate {1} could have forged
        # them all.
        values = {0: 0.0, 1: 1.0, 2: 2.0, 3: 3.0}
        message_set = MessageSet()
        message_set.add(values[0], (0,))
        message_set.add(values[1], (1, 0))
        message_set.add(values[3], (3, 0))
        message_set.add(values[2], (2, 1, 0))  # only via node 1
        assert not completeness(message_set, values, frozenset({3}), topology4, 0)

    def test_complete_once_disjoint_confirmation_arrives(self, topology4):
        values = {0: 0.0, 1: 1.0, 2: 2.0, 3: 3.0}
        message_set = MessageSet()
        message_set.add(values[0], (0,))
        message_set.add(values[1], (1, 0))
        message_set.add(values[3], (3, 0))
        message_set.add(values[2], (2, 1, 0))
        message_set.add(values[2], (2, 0))  # direct, bypassing node 1
        message_set.add(values[1], (1, 2, 0))
        message_set.add(values[3], (3, 1, 0))
        message_set.add(values[1], (1, 3, 0))
        message_set.add(values[3], (3, 2, 0))
        message_set.add(values[2], (2, 3, 0))
        assert completeness(message_set, values, frozenset({3}), topology4, 0)

    def test_mismatched_witness_value_blocks_completeness(self, topology4):
        values = {0: 0.0, 1: 1.0, 2: 2.0, 3: 3.0}
        message_set = fill_from_all_paths(topology4, 0, values)
        lying_witness = dict(values)
        lying_witness[2] = 99.0  # nobody confirms this value locally
        assert not completeness(message_set, lying_witness, frozenset({3}), topology4, 0)


class TestDeficitDiagnostics:
    def test_deficit_empty_when_complete(self, topology4):
        values = {0: 0.0, 1: 1.0, 2: 2.0, 3: 3.0}
        message_set = fill_from_all_paths(topology4, 0, values)
        assert completeness_deficit(message_set, values, frozenset({3}), topology4, 0) == {}

    def test_deficit_reports_missing_witness_value(self, topology4):
        values = {0: 0.0, 1: 1.0, 2: 2.0, 3: 3.0}
        message_set = fill_from_all_paths(topology4, 0, values)
        witness_values = {node: value for node, value in values.items() if node != 2}
        deficits = completeness_deficit(message_set, witness_values, frozenset({3}), topology4, 0)
        assert deficits.get(2, "absent") is None

    def test_deficit_reports_cover(self, topology4):
        values = {0: 0.0, 1: 1.0, 2: 2.0, 3: 3.0}
        message_set = MessageSet()
        message_set.add(values[0], (0,))
        message_set.add(values[1], (1, 0))
        message_set.add(values[3], (3, 0))
        message_set.add(values[2], (2, 1, 0))
        deficits = completeness_deficit(message_set, values, frozenset({3}), topology4, 0)
        assert 2 in deficits and deficits[2] == frozenset({1})


# ----------------------------------------------------------------------
# differential oracle: the mask pre-check and kernels vs. path-level search
# ----------------------------------------------------------------------
ORACLE_GRAPHS = {
    "clique4": complete_digraph(4),
    "clique5": complete_digraph(5),
    "figure1a": figure_1a(),
}
_ORACLE_TOPOLOGIES = {}


def oracle_topology(name, f):
    key = (name, f)
    if key not in _ORACLE_TOPOLOGIES:
        _ORACLE_TOPOLOGIES[key] = TopologyKnowledge(ORACLE_GRAPHS[name], f, "simple")
    return _ORACLE_TOPOLOGIES[key]


@st.composite
def completeness_inputs(draw):
    """A random ``(M_v, M_c, F_u)`` at a random node: a subset of the simple
    paths to ``v`` carrying their origin's value, some carrying a lie, some
    with a forged hop spliced in; a witness map that may lie about or omit
    a node; any candidate fault set as ``F_u``."""
    topology = oracle_topology(
        draw(st.sampled_from(sorted(ORACLE_GRAPHS))), draw(st.sampled_from((1, 2)))
    )
    nodes = topology.nodes
    node = draw(st.sampled_from(nodes))
    honest = {origin: float(rank) for rank, origin in enumerate(nodes)}
    universe = sorted(enumerate_simple_paths_to(topology.graph, node), key=repr)
    indices = st.integers(0, len(universe) - 1)
    dropped = draw(st.sets(indices))
    lies = draw(st.sets(indices, max_size=4))
    forged = draw(st.lists(st.tuples(indices, st.integers(0, 3), st.integers(0, 2)), max_size=3))
    shared_codec = draw(st.booleans())
    message_set = MessageSet(codec=topology.path_codec if shared_codec else None)
    for index, path in enumerate(universe):
        if index not in dropped:
            message_set.add(honest[path[0]] + (0.5 if index in lies else 0.0), path)
    for index, position, ghost in forged:
        path = universe[index]
        cut = min(position, len(path) - 1)
        message_set.add(honest[path[0]], path[:cut] + (f"ghost{ghost}",) + path[cut:])
    witness = {}
    for origin in nodes:
        kind = draw(st.sampled_from(("honest", "honest", "lie", "missing")))
        if kind != "missing":
            witness[origin] = honest[origin] + (0.5 if kind == "lie" else 0.0)
    announced = draw(st.sampled_from(topology.fault_sets))
    return message_set, witness, announced, topology, node


class TestDifferentialOracle:
    """``completeness`` (mask pre-check, backend f-cover kernels) agrees with
    ``completeness_deficit`` (``find_f_cover`` on path tuples)."""

    @settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(completeness_inputs())
    def test_completeness_iff_no_deficit(self, inputs):
        assert completeness(*inputs) == (completeness_deficit(*inputs) == {})

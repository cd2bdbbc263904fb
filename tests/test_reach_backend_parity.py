"""Cross-backend report parity of the reach-condition checkers.

The 2-reach core asks the bitset backend for its distinct reach masks in a
fixed order (private sets outer, nodes inner) and scans them for the first
disjoint pair.  The order is part of the backend contract, so the whole
:class:`~repro.conditions.certificates.ConditionReport` — verdict,
``checks_performed`` and the full violation witness — must be identical
whichever backend computed it.  The graphs here are at or above the numpy
auto-selection threshold (n ≥ 24), where the numpy array pipeline runs.

Cost is kept to a few seconds: 3-reach with ``f = 2`` runs only on graphs
that already violate 2-reach (its first shared set is ``F = ∅``, whose core
is the 2-reach core, so the sweep stops there), and 4-reach with ``f = 2``
(no shared set, every private set of size ≤ 4 closed) runs on one sparse
n=24 graph.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.conditions.reach_conditions import (
    check_k_reach,
    check_three_reach,
    check_two_reach,
)
from repro.graphs.bitset import BitsetIndex
from repro.graphs.bitset_backends import numpy_available
from repro.graphs.generators import random_digraph

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="numpy backend not installed (repro[fast])"
)

BACKENDS = ("python", "numpy")


def _reports(graph, checker):
    """``checker(graph)`` once per backend, pinned on the shared index."""
    reports = []
    for name in BACKENDS:
        BitsetIndex.for_graph(graph).set_backend(name)
        reports.append(checker(graph))
    return reports


def _assert_same(graph, checker):
    python_report, numpy_report = _reports(graph, checker)
    assert numpy_report.holds == python_report.holds
    assert numpy_report.checks_performed == python_report.checks_performed
    assert numpy_report.reach_violation == python_report.reach_violation
    assert numpy_report == python_report
    return python_report


@st.composite
def random_graphs(draw):
    n = draw(st.integers(min_value=24, max_value=40))
    p = draw(st.sampled_from([0.08, 0.15, 0.25, 0.5]))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    f = draw(st.sampled_from([1, 2]))
    return random_digraph(n, p, seed=seed), f


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(random_graphs())
def test_reports_identical_across_backends(case):
    graph, f = case
    two = _assert_same(graph, lambda g: check_two_reach(g, f))
    if f == 1 or not two.holds:
        _assert_same(graph, lambda g: check_three_reach(g, f))
    if f == 1:
        _assert_same(graph, lambda g: check_k_reach(g, f, 4))


def test_four_reach_f2_identical_across_backends():
    graph = random_digraph(24, 0.15, seed=3)
    report = _assert_same(graph, lambda g: check_k_reach(g, 2, 4))
    assert not report.holds


@pytest.mark.parametrize("p, holds", [(0.1, True), (0.03, False)])
def test_wide_graph_falls_back_identically(p, holds):
    """n=66 masks do not fit one uint64 word: the numpy backend defers to
    the reference kernels and must still report the same."""
    graph = random_digraph(66, p, seed=5)
    report = _assert_same(graph, lambda g: check_two_reach(g, 1))
    assert report.holds is holds

"""Report parity of the reach-condition checkers: across backends and
against the ordered sweep.

The 2-reach core runs in two passes.  Per shared set, the backend returns
the distinct reach masks as a plain ascending set and says whether two of
them are disjoint; only the shared set where two are disjoint is rebuilt in
first-appearance order with witnesses (in
:mod:`repro.conditions.reach_conditions`, not in a backend) and scanned for
the first disjoint pair.  The order is no longer a backend contract: the
backends must agree on the *set* of masks and on whether it holds a
disjoint pair, and the whole :class:`~repro.conditions.certificates.ConditionReport`
— verdict, ``checks_performed`` and the full violation witness — must then
come out identical whichever backend computed it.

Two kinds of check:

* python ⇔ numpy on random digraphs at or above the numpy auto-selection
  threshold (n ≥ 24).  3-reach with ``f = 2`` runs there only on graphs
  that already violate 2-reach (its first shared set is ``F = ∅``, whose
  core is the 2-reach core, so the sweep stops there), and 4-reach with
  ``f = 2`` (no shared set, every private set of size ≤ 4 closed) on one
  sparse n=24 graph;
* every registered backend against
  :func:`tests._oracles.ordered_reach_sweep`, which runs the ordered pass on
  every shared set, at n ≤ 40 — including graphs where 2-reach holds and
  3-reach fails first at a non-empty shared set, so the violating set is
  found by the cheap pass after it cleared others, and one ``f = 2``
  holding sweep at n = 24.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from _oracles import ordered_reach_sweep
from repro.conditions.reach_conditions import (
    check_k_reach,
    check_three_reach,
    check_two_reach,
)
from repro.graphs.bitset import BitsetIndex
from repro.graphs.bitset_backends import numpy_available
from repro.graphs.generators import random_digraph, two_cliques_bridged
from repro.registry import BITSET_BACKENDS

needs_numpy = pytest.mark.skipif(
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


@needs_numpy
@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(random_graphs())
def test_reports_identical_across_backends(case):
    graph, f = case
    two = _assert_same(graph, lambda g: check_two_reach(g, f))
    if f == 1 or not two.holds:
        _assert_same(graph, lambda g: check_three_reach(g, f))
    if f == 1:
        _assert_same(graph, lambda g: check_k_reach(g, f, 4))


@needs_numpy
def test_four_reach_f2_identical_across_backends():
    graph = random_digraph(24, 0.15, seed=3)
    report = _assert_same(graph, lambda g: check_k_reach(g, 2, 4))
    assert not report.holds


@needs_numpy
@pytest.mark.parametrize("p, holds", [(0.1, True), (0.03, False)])
def test_wide_graph_falls_back_identically(p, holds):
    """n=66 masks do not fit one uint64 word: the numpy backend defers to
    the reference kernels and must still report the same."""
    graph = random_digraph(66, p, seed=5)
    report = _assert_same(graph, lambda g: check_two_reach(g, 1))
    assert report.holds is holds


# ----------------------------------------------------------------------
# against the ordered sweep
# ----------------------------------------------------------------------
#: ``random_digraph(n, p, seed)`` graphs with ``f`` where 2-reach holds and
#: 3-reach fails first at a non-empty shared set.
PAST_EMPTY_SHARED_SET = [
    (8, 0.5, 8, 2),
    (12, 0.6, 0, 2),
    (14, 0.7, 2, 2),
    (24, 0.3, 0, 1),
    (32, 0.25, 0, 1),
    (40, 0.2, 2, 1),
]


@st.composite
def oracle_cases(draw):
    """A random digraph with n ≤ 40 (n ≤ 14 at f = 2, where the oracle's
    pure-python pair loop over every shared set grows fast) and an f."""
    f = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(min_value=5, max_value=40 if f == 1 else 14))
    p = draw(st.sampled_from([0.15, 0.25, 0.35, 0.5, 0.7]))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return random_digraph(n, p, seed=seed), f


def _check_against_oracle(graph, f, k):
    """``check_k_reach`` (3-reach through ``check_three_reach``) on every
    registered backend, report for report."""
    expected = ordered_reach_sweep(graph, f, k)
    for entry in BITSET_BACKENDS.entries():
        BitsetIndex.for_graph(graph).set_backend(entry.obj)
        assert check_k_reach(graph, f, k) == expected, entry.name


def _past_empty_examples(test):
    for n, p, seed, f in PAST_EMPTY_SHARED_SET:
        test = example((random_digraph(n, p, seed=seed), f))(test)
    return test


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(oracle_cases())
@_past_empty_examples
@example((two_cliques_bridged(12, 5, 5), 2))  # n=24, f=2: 3-reach holds (scaling grid)
def test_reports_equal_the_ordered_sweep(case):
    graph, f = case
    _check_against_oracle(graph, f, 3)
    if (f == 1 and graph.num_nodes <= 24) or graph.num_nodes <= 10:
        _check_against_oracle(graph, f, 4)


@pytest.mark.parametrize("n, p, seed, f", PAST_EMPTY_SHARED_SET)
def test_examples_fail_first_past_the_empty_shared_set(n, p, seed, f):
    graph = random_digraph(n, p, seed=seed)
    assert check_two_reach(graph, f).holds
    report = check_three_reach(graph, f)
    assert not report.holds and report.reach_violation.shared_fault_set

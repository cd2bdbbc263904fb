"""Unit tests for Filter-and-Average (Algorithm 3)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import literal_filter_and_average
from repro.algorithms.filter_average import FilterResult, filter_and_average
from repro.algorithms.messagesets import MessageSet, PathTable
from repro.exceptions import ProtocolError


def build_set(entries):
    message_set = MessageSet()
    for value, path in entries:
        message_set.add(value, path)
    return message_set


class TestTrimming:
    def test_no_faults_no_trimming(self):
        # f = 0: nothing can be covered, nothing is trimmed.
        message_set = build_set([(0.0, ("a", "v")), (1.0, ("b", "v")), (0.5, ("v",))])
        result = filter_and_average(message_set, f=0, evaluating_node="v")
        assert result.trimmed_low == 0 and result.trimmed_high == 0
        assert result.new_value == pytest.approx(0.5)

    def test_extreme_value_from_single_suspect_is_trimmed(self):
        # The lowest value arrives only through paths containing node "x":
        # a single fault could have fabricated it, so it must be trimmed.
        message_set = build_set(
            [
                (-100.0, ("x", "v")),
                (-100.0, ("a", "x", "v")),
                (0.2, ("a", "v")),
                (0.4, ("b", "v")),
                (0.3, ("v",)),
            ]
        )
        result = filter_and_average(message_set, f=1, evaluating_node="v")
        assert result.trimmed_low == 2
        assert min(result.kept_values) == pytest.approx(0.2)
        assert result.new_value == pytest.approx((0.2 + 0.3) / 2)

    def test_both_tails_trimmed(self):
        message_set = build_set(
            [
                (-50.0, ("x", "v")),
                (50.0, ("y", "v")),
                (0.0, ("a", "v")),
                (1.0, ("b", "v")),
                (0.5, ("v",)),
            ]
        )
        result = filter_and_average(message_set, f=1, evaluating_node="v")
        assert result.trimmed_low == 1 and result.trimmed_high == 1
        assert result.new_value == pytest.approx(0.5)

    def test_own_value_never_trimmed(self):
        # Even when the node's own value is the most extreme one, the cover
        # cannot contain the node itself, so the value survives.
        message_set = build_set([(5.0, ("v",)), (0.0, ("a", "v")), (0.1, ("b", "v"))])
        result = filter_and_average(message_set, f=1, evaluating_node="v")
        assert 5.0 in result.kept_values

    def test_value_attributable_to_single_origin_is_trimmed(self):
        # Both copies of the low value originate at q, so the single fault
        # candidate {q} explains them and the value is (correctly) trimmed —
        # q itself may be the liar.
        message_set = build_set(
            [
                (-10.0, ("q", "a", "v")),
                (-10.0, ("q", "b", "v")),
                (0.0, ("v",)),
                (1.0, ("c", "v")),
            ]
        )
        result = filter_and_average(message_set, f=1, evaluating_node="v")
        assert result.trimmed_low == 2
        assert -10.0 not in result.kept_values

    def test_value_from_two_distinct_origins_survives(self):
        # The same low value reported by two different origins over disjoint
        # routes cannot be blamed on one fault, so it stays.
        message_set = build_set(
            [
                (-10.0, ("q", "a", "v")),
                (-10.0, ("r", "b", "v")),
                (0.0, ("v",)),
                (1.0, ("c", "v")),
            ]
        )
        result = filter_and_average(message_set, f=1, evaluating_node="v")
        assert result.trimmed_low == 1
        assert -10.0 in result.kept_values

    def test_f2_trims_pairs(self):
        message_set = build_set(
            [
                (-10.0, ("x", "v")),
                (-9.0, ("y", "v")),
                (0.0, ("v",)),
                (0.5, ("a", "v")),
                (9.0, ("z", "v")),
            ]
        )
        result = filter_and_average(message_set, f=2, evaluating_node="v")
        assert result.trimmed_low == 2
        assert result.trimmed_high == 2
        assert result.new_value == pytest.approx(0.0)

    def test_trim_counts_are_maximal_prefixes(self):
        # Prefix of length 2 is coverable by {x}, length 3 is not.
        message_set = build_set(
            [
                (-3.0, ("x", "v")),
                (-2.0, ("x", "a", "v")),
                (-1.0, ("b", "v")),
                (0.0, ("v",)),
            ]
        )
        result = filter_and_average(message_set, f=1, evaluating_node="v")
        assert result.trimmed_low == 2


class TestResultObject:
    def test_kept_entries_consistent_with_counts(self):
        message_set = build_set([(0.0, ("a", "v")), (1.0, ("v",)), (2.0, ("b", "v"))])
        result = filter_and_average(message_set, f=1, evaluating_node="v")
        assert isinstance(result, FilterResult)
        assert len(result.kept_entries) == len(result.sorted_entries) - result.trimmed_low - result.trimmed_high
        assert result.kept_values == [value for value, _ in result.kept_entries]

    def test_midpoint_of_kept_values(self):
        message_set = build_set([(0.0, ("v",)), (0.4, ("a", "v")), (1.0, ("b", "v"))])
        result = filter_and_average(message_set, f=0, evaluating_node="v")
        assert result.new_value == pytest.approx(0.5)


class TestErrors:
    def test_empty_message_set_rejected(self):
        with pytest.raises(ProtocolError):
            filter_and_average(MessageSet(), f=1, evaluating_node="v")

    def test_everything_coverable_without_own_value_raises(self):
        # Pathological direct invocation: every path goes through "x" and the
        # evaluating node's own value is absent — the trimmed vector is empty.
        message_set = build_set([(1.0, ("x", "v")), (2.0, ("x", "a", "v"))])
        with pytest.raises(ProtocolError):
            filter_and_average(message_set, f=1, evaluating_node="v")


@st.composite
def histories(draw):
    """A node's message history on ``n ≤ 7`` nodes: distinct paths ending at
    the evaluating node 0, values from a small pool so that ties cross
    origins and paths, usually with the node's own path ``(0,)``.  The set
    numbers its paths either in a private table (tuple-sorted ties) or in a
    lexicographic one (id-sorted ties)."""
    n = draw(st.integers(min_value=3, max_value=7))
    hops = st.integers(min_value=0, max_value=n - 1)
    paths = draw(
        st.lists(
            st.lists(hops, min_size=1, max_size=4).map(lambda prefix: tuple(prefix) + (0,)),
            max_size=18,
            unique=True,
        )
    )
    if draw(st.booleans()) or not paths:
        paths = [(0,)] + [path for path in paths if path != (0,)]
    values = st.sampled_from([-2.0, -0.5, 0.0, 0.25, 1.0, 3.0])
    entries = [(draw(values), path) for path in paths]
    table = PathTable.lexicographic(paths) if draw(st.booleans()) else None
    message_set = MessageSet(table=table)
    for value, path in entries:
        message_set.add(value, path)
    return entries, message_set


class TestAgainstTheLiteralAlgorithm:
    @settings(max_examples=400, deadline=None)
    @given(histories(), st.sampled_from([1, 2]))
    def test_value_groups_trim_exactly_like_every_prefix_scan(self, history, f):
        entries, message_set = history
        expected = literal_filter_and_average(entries, f, 0)
        if expected is None:
            with pytest.raises(ProtocolError):
                filter_and_average(message_set, f, 0)
            return
        result = filter_and_average(message_set, f, 0)
        assert (
            result.new_value,
            result.trimmed_low,
            result.trimmed_high,
            result.kept_values,
        ) == expected


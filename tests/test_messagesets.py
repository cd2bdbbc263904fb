"""Unit tests for protocol messages and message sets (Definitions 7-9)."""

from __future__ import annotations

import dataclasses

from repro.algorithms.messages import (
    CompleteMessage,
    EchoMessage,
    RoundValueMessage,
    ValueMessage,
    sort_value_pairs,
)
from repro.algorithms.messagesets import MessageSet


class TestMessages:
    def test_value_message_origin(self):
        message = ValueMessage(round=2, value=0.5, path=("a", "b"))
        assert message.origin == "a"
        assert dataclasses.replace(message, value=1.0).value == 1.0

    def test_complete_message_value_map_and_key(self):
        message = CompleteMessage(
            round=1,
            origin="c",
            fault_set=frozenset({"x"}),
            values=(("a", 1.0), ("b", 2.0)),
            fifo_counter=3,
            path=("c",),
        )
        assert message.value_map() == {"a": 1.0, "b": 2.0}
        same_content = dataclasses.replace(message, path=("c", "d"))
        assert message.content_key() == same_content.content_key()
        different = dataclasses.replace(message, fifo_counter=4)
        assert message.content_key() != different.content_key()

    def test_messages_are_hashable(self):
        a = ValueMessage(0, 1.0, ("x",))
        b = RoundValueMessage(0, 1.0, "x")
        c = EchoMessage(0, "x", 1.0)
        assert len({a, b, c, a}) == 3

    def test_sort_value_pairs_is_canonical(self):
        assert sort_value_pairs([("b", 2.0), ("a", 1.0)]) == (("a", 1.0), ("b", 2.0))


class TestMessageSetBasics:
    def test_add_and_duplicate_paths(self):
        message_set = MessageSet()
        assert message_set.add(1.0, ("a", "v"))
        assert not message_set.add(2.0, ("a", "v"))  # first value per path wins
        assert message_set.value_on_path(("a", "v")) == 1.0
        assert len(message_set) == 1

    def test_iteration_and_entries(self):
        message_set = MessageSet([(1.0, ("a",)), (2.0, ("b", "a"))])
        assert set(message_set.paths()) == {("a",), ("b", "a")}
        assert sorted(value for value, _ in message_set) == [1.0, 2.0]
        assert ("a",) in message_set

    def test_initial_nodes(self):
        message_set = MessageSet([(1.0, ("a", "v")), (2.0, ("b", "v")), (3.0, ("a", "c", "v"))])
        assert message_set.initial_nodes() == {"a", "b"}

    def test_values_and_sorted_entries(self):
        message_set = MessageSet([(3.0, ("c",)), (1.0, ("a",)), (2.0, ("b",))])
        assert sorted(message_set.values()) == [1.0, 2.0, 3.0]
        assert [value for value, _ in sorted(message_set.entries())] == [1.0, 2.0, 3.0]


class TestExclusion:
    def test_exclusion_removes_paths_through_set(self):
        message_set = MessageSet([(1.0, ("a", "x", "v")), (2.0, ("b", "v"))])
        restricted = message_set.exclude({"x"})
        assert restricted.paths() == {("b", "v")}

    def test_exclusion_of_nothing_is_identity(self):
        message_set = MessageSet([(1.0, ("a", "v"))])
        assert message_set.exclude(set()).paths() == message_set.paths()

    def test_exclusion_result_supports_further_queries(self):
        message_set = MessageSet([(1.0, ("a", "x", "v")), (2.0, ("a", "v"))])
        restricted = message_set.exclude({"x"})
        assert restricted.paths_from_with_value("a", 2.0) == [("a", "v")]


class TestConsistency:
    def test_consistent_when_origin_values_agree(self):
        message_set = MessageSet([(1.0, ("a", "v")), (1.0, ("a", "b", "v")), (2.0, ("b", "v"))])
        assert message_set.is_consistent()
        assert message_set.value_of("a") == 1.0
        assert message_set.value_map() == {"a": 1.0, "b": 2.0}

    def test_inconsistent_when_origin_disagrees(self):
        message_set = MessageSet([(1.0, ("a", "v")), (9.0, ("a", "b", "v"))])
        assert not message_set.is_consistent()

    def test_value_of_missing_origin(self):
        assert MessageSet().value_of("zzz") is None


class TestFullness:
    def test_full_for_required_paths(self):
        required = [("v",), ("a", "v"), ("b", "a", "v")]
        message_set = MessageSet([(0.0, ("v",)), (1.0, ("a", "v")), (2.0, ("b", "a", "v"))])
        assert message_set.is_full_for(required)
        assert message_set.missing_paths(required) == []

    def test_not_full_reports_missing(self):
        required = [("v",), ("a", "v")]
        message_set = MessageSet([(0.0, ("v",))])
        assert not message_set.is_full_for(required)
        assert message_set.missing_paths(required) == [("a", "v")]

    def test_full_for_empty_requirement(self):
        assert MessageSet().is_full_for([])


class TestCompletenessQueries:
    def test_paths_from_with_value_filters_on_both(self):
        message_set = MessageSet(
            [(1.0, ("q", "v")), (1.0, ("q", "z", "v")), (9.0, ("q", "w", "v")), (1.0, ("r", "v"))]
        )
        assert sorted(message_set.paths_from_with_value("q", 1.0)) == [("q", "v"), ("q", "z", "v")]
        assert message_set.paths_from_with_value("q", 5.0) == []
        assert message_set.paths_from_with_value("nobody", 1.0) == []

    def test_repr(self):
        assert "MessageSet" in repr(MessageSet())

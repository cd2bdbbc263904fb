"""Unit tests for the k-reach condition checkers (Definitions 3 and 20)."""

from __future__ import annotations

import pytest

from repro.conditions.reach_conditions import (
    check_k_reach,
    check_one_reach,
    check_three_reach,
    check_two_reach,
    iter_subsets,
    max_tolerable_f,
)
from repro.conditions.partition_conditions import check_bcs, check_cca, check_ccs
from repro.exceptions import ConditionError, InvalidFaultBoundError
from repro.graphs.digraph import DiGraph
from repro.graphs.generators import (
    complete_digraph,
    directed_cycle,
    directed_path,
    figure_1a,
    star_out,
    two_cliques_bridged,
)


class TestSubsetHelpers:
    def test_iter_subsets_counts(self):
        subsets = list(iter_subsets([1, 2, 3], 2))
        assert len(subsets) == 1 + 3 + 3
        assert frozenset() in subsets and frozenset({1, 2}) in subsets

    def test_iter_subsets_bound_larger_than_population(self):
        assert len(list(iter_subsets([1, 2], 5))) == 4

    def test_iter_subsets_negative_raises(self):
        with pytest.raises(InvalidFaultBoundError):
            list(iter_subsets([1], -1))


class TestOneReach:
    def test_clique_always_satisfies_one_reach(self):
        assert check_one_reach(complete_digraph(3), 1).holds
        assert check_one_reach(complete_digraph(5), 2).holds

    def test_cycle_satisfies_one_reach_for_one_fault(self):
        assert check_one_reach(directed_cycle(5), 1).holds

    def test_disconnected_graph_violates_one_reach(self):
        graph = DiGraph(nodes=[0, 1, 2])
        graph.add_edge(0, 1)
        report = check_one_reach(graph, 0)
        assert not report.holds
        assert report.reach_violation is not None
        violation = report.reach_violation
        assert not (violation.reach_u & violation.reach_v)

    def test_star_out_violated_when_hub_may_fail(self):
        # With the hub in F, the leaves cannot influence each other.
        report = check_one_reach(star_out(4), 1)
        assert not report.holds
        assert report.reach_violation.shared_fault_set == frozenset({0})

    def test_f_zero_equals_single_source_requirement(self):
        assert check_one_reach(directed_path(4), 0).holds
        two_sources = DiGraph(edges=[(0, 2), (1, 2)])
        assert not check_one_reach(two_sources, 0).holds


class TestTwoReach:
    def test_clique_threshold(self):
        assert check_two_reach(complete_digraph(3), 1).holds
        assert not check_two_reach(complete_digraph(2), 1).holds

    def test_cycle_fails_two_reach(self):
        report = check_two_reach(directed_cycle(5), 1)
        assert not report.holds
        # The violation consists of each node suspecting the other's only feed.
        violation = report.reach_violation
        assert violation.shared_fault_set == frozenset()
        assert len(violation.fault_set_u) <= 1 and len(violation.fault_set_v) <= 1

    def test_figure_1a_satisfies_two_reach(self):
        assert check_two_reach(figure_1a(), 1).holds

    def test_report_counts_checks(self):
        report = check_two_reach(complete_digraph(4), 1)
        assert report.holds
        assert report.checks_performed >= 0


class TestThreeReach:
    def test_clique_three_reach_threshold(self):
        assert check_three_reach(complete_digraph(4), 1).holds
        assert not check_three_reach(complete_digraph(3), 1).holds

    def test_figure_1a(self):
        assert check_three_reach(figure_1a(), 1).holds
        assert not check_three_reach(figure_1a(), 2).holds

    def test_violation_certificate_is_consistent(self):
        report = check_three_reach(complete_digraph(3), 1)
        violation = report.reach_violation
        assert violation is not None
        assert violation.u not in violation.excluded_for_u()
        assert violation.v not in violation.excluded_for_v()
        assert not (violation.reach_u & violation.reach_v)
        assert violation.u in violation.reach_u
        assert violation.v in violation.reach_v
        assert "reach" in violation.describe()

    def test_two_cliques_resilience_grows_with_bridges(self):
        weak = two_cliques_bridged(4, 1, 1)
        strong = two_cliques_bridged(4, 3, 3)
        assert not check_three_reach(weak, 1).holds
        assert check_three_reach(strong, 1).holds

    def test_empty_graph_rejected(self):
        with pytest.raises(ConditionError, match="cannot evaluate conditions on an empty graph"):
            check_three_reach(DiGraph(), 1)

    def test_negative_f_rejected(self):
        with pytest.raises(InvalidFaultBoundError):
            check_three_reach(complete_digraph(3), -1)


class TestKReach:
    def test_k_reach_specialisations_match(self):
        graph = figure_1a()
        for k, specialised in ((1, check_one_reach), (2, check_two_reach), (3, check_three_reach)):
            assert check_k_reach(graph, 1, k).holds == specialised(graph, 1).holds

    def test_k_reach_on_cliques_matches_counting(self):
        # k-reach on the n-clique should hold exactly when n > k·f.
        for n in (4, 5, 6, 7):
            for f in (1, 2):
                if n <= f:
                    continue
                for k in (1, 2, 3, 4, 5):
                    expected = n > k * f
                    assert check_k_reach(complete_digraph(n), f, k).holds == expected, (n, f, k)

    def test_k_reach_condition_name(self):
        report = check_k_reach(complete_digraph(5), 1, 4)
        assert report.condition == "4-reach"

    def test_invalid_k(self):
        with pytest.raises(ConditionError, match="k must be a positive integer, got 0"):
            check_k_reach(complete_digraph(3), 1, 0)

    def test_monotone_in_k(self):
        # Larger k is a stronger requirement.
        graph = figure_1a()
        verdicts = [check_k_reach(graph, 1, k).holds for k in (1, 2, 3, 4)]
        for earlier, later in zip(verdicts, verdicts[1:]):
            assert earlier or not later


class TestMaxTolerableF:
    def test_clique_resilience(self):
        assert max_tolerable_f(complete_digraph(7), k=3) == 2
        assert max_tolerable_f(complete_digraph(7), k=2) == 3
        assert max_tolerable_f(complete_digraph(7), k=1) >= 6

    def test_figure_1a_resilience(self):
        assert max_tolerable_f(figure_1a(), k=3) == 1

    def test_cycle_has_no_byzantine_resilience(self):
        assert max_tolerable_f(directed_cycle(5), k=3) == 0

    def test_upper_bound_respected(self):
        assert max_tolerable_f(complete_digraph(9), k=1, upper_bound=3) == 3


class TestMalformedQueries:
    """Every checker names the bad argument: ``f`` is a fault bound, an empty
    graph and ``k < 1`` are not."""

    CHECKERS = {
        "1-reach": check_one_reach,
        "2-reach": check_two_reach,
        "3-reach": check_three_reach,
        "4-reach": lambda graph, f: check_k_reach(graph, f, 4),
        "CCS": check_ccs,
        "CCA": check_cca,
        "BCS": check_bcs,
    }

    @pytest.mark.parametrize("name", sorted(CHECKERS))
    def test_empty_graph_names_the_graph(self, name):
        with pytest.raises(ConditionError, match="empty graph") as raised:
            self.CHECKERS[name](DiGraph(), 1)
        assert not isinstance(raised.value, InvalidFaultBoundError)

    @pytest.mark.parametrize("name", sorted(CHECKERS))
    def test_negative_f_names_the_fault_bound(self, name):
        with pytest.raises(InvalidFaultBoundError, match="fault bound f .* got -1"):
            self.CHECKERS[name](complete_digraph(3), -1)

    def test_max_tolerable_f_on_empty_graph_names_the_graph(self):
        with pytest.raises(ConditionError, match="empty graph") as raised:
            max_tolerable_f(DiGraph())
        assert not isinstance(raised.value, InvalidFaultBoundError)

    @pytest.mark.parametrize("k", [0, -2])
    def test_bad_k_names_k(self, k):
        with pytest.raises(ConditionError, match=f"k must be a positive integer, got {k}") as raised:
            check_k_reach(complete_digraph(3), 1, k)
        assert not isinstance(raised.value, InvalidFaultBoundError)
        with pytest.raises(ConditionError, match="k must be a positive integer"):
            max_tolerable_f(complete_digraph(3), k=k)

    @pytest.mark.parametrize("name", sorted(CHECKERS))
    @pytest.mark.parametrize("bad", [True, False, 1.0, "1", -1], ids=repr)
    def test_non_integer_f_names_the_fault_bound(self, name, bad):
        with pytest.raises(InvalidFaultBoundError):
            self.CHECKERS[name](complete_digraph(4), bad)

    @pytest.mark.parametrize("bad", [True, 2.0, "3"], ids=repr)
    def test_non_integer_k_names_k(self, bad):
        with pytest.raises(ConditionError, match="k must be a positive integer") as raised:
            check_k_reach(complete_digraph(4), 1, bad)
        assert not isinstance(raised.value, InvalidFaultBoundError)

    @pytest.mark.parametrize("name", sorted(CHECKERS))
    def test_numpy_integer_f_gives_the_plain_int_report(self, name):
        numpy = pytest.importorskip("numpy")
        graph = figure_1a()
        report = self.CHECKERS[name](graph, numpy.int64(1))
        assert report == self.CHECKERS[name](graph, 1)
        assert type(report.f) is int

    def test_numpy_integer_k_gives_the_plain_int_report(self):
        numpy = pytest.importorskip("numpy")
        graph = figure_1a()
        for k in (2, 4):
            report = check_k_reach(graph, numpy.int64(1), numpy.int64(k))
            assert report == check_k_reach(graph, 1, k)
            assert type(report.f) is int and report.condition == f"{k}-reach"

"""The clique closed forms of Appendix A against the general checkers.

In a complete graph the reach conditions collapse to counting conditions:
k-reach holds on the ``n``-clique exactly when ``n > k·f`` (1-reach ⇔
``n > f``, 2-reach ⇔ ``n > 2f``, 3-reach ⇔ ``n > 3f``), so the optimal
Byzantine resilience is ``⌈n/3⌉ - 1 = (n - 1) // 3`` and the asynchronous
crash resilience ``(n - 1) // 2``.
"""

from __future__ import annotations

import pytest

from repro.conditions.reach_conditions import check_k_reach, max_tolerable_f
from repro.graphs.generators import complete_digraph


def clique_holds(n: int, f: int, k: int) -> bool:
    return check_k_reach(complete_digraph(n), f, k).holds


class TestClosedForms:
    def test_thresholds(self):
        assert clique_holds(4, 3, 1)
        assert clique_holds(5, 2, 2) and not clique_holds(4, 2, 2)
        assert clique_holds(4, 1, 3) and not clique_holds(3, 1, 3)

    def test_k_reach_closed_form(self):
        assert clique_holds(9, 2, 4)
        assert not clique_holds(8, 2, 4)


class TestOptimalResilience:
    def test_byzantine_resilience(self):
        for n, f in ((3, 0), (4, 1), (6, 1), (7, 2)):
            assert max_tolerable_f(complete_digraph(n), k=3) == f == (n - 1) // 3

    def test_crash_resilience(self):
        for n, f in ((2, 0), (5, 2)):
            assert max_tolerable_f(complete_digraph(n), k=2) == f == (n - 1) // 2

    def test_resilience_consistent_with_closed_form(self):
        for n in range(2, 10):
            f = (n - 1) // 3
            assert clique_holds(n, f, 3)
            assert not clique_holds(n, f + 1, 3)


class TestEquivalenceWithGeneralCheckers:
    # The closed form is stated for the non-degenerate regime n > f.  With
    # n <= f a fault set may hold every node; such a set constrains nothing,
    # so the verdict is the one at f = n - 1.
    @pytest.mark.parametrize("f, n", [(f, n) for n in range(2, 8) for f in range(3)])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_general_checker_matches_closed_form(self, f, n, k):
        if n > f:
            assert clique_holds(n, f, k) == (n > k * f)
        else:
            assert clique_holds(n, f, k) == clique_holds(n, n - 1, k) == (n > k * (n - 1))

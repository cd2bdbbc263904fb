"""The k-reach condition family (Definition 3 and Definition 20).

The paper's central topological conditions:

* **1-reach** — for every fault candidate ``F`` (``|F| ≤ f``) and every pair
  of nodes outside ``F``, the reach sets under ``F`` intersect.  Tight for
  synchronous crash consensus (Theorem 1).
* **2-reach** — every pair of nodes, each suspecting its own candidate set,
  still shares a common influence node.  Tight for asynchronous crash
  approximate consensus (Theorem 2).
* **3-reach** — a shared set ``F`` plus per-node suspicion sets; tight for
  synchronous Byzantine exact consensus (Theorem 3) and — the paper's main
  result — for asynchronous Byzantine approximate consensus (Theorem 4).
* **k-reach** — the generalization of Appendix A (Definition 20): the total
  "exclusion budget" per node is one shared set of size ``≤ f`` (odd ``k``)
  plus ``⌊k/2⌋`` private sets of size ``≤ f`` each.

Checkers are exhaustive and exact.  Reach sets are integer bitmasks computed
by the shared :class:`~repro.graphs.bitset.BitsetIndex` engine (one index per
graph, shared with every other checker and with the BW verification path);
its per-exclusion memo deduplicates the many overlapping ``F ∪ F_v`` unions
the (inherently exponential in ``f``) enumeration produces, which keeps
Figure 1(b) (``n = 14``, ``f = 2``) checking in well under a second.

The 2-reach core (run once per shared set by 3-reach and k-reach) needs
only the *distinct* reach masks of its entries: equal masks always meet,
and a mask holding every live node meets all the others.  It runs in two
passes.  The cheap pass, run on every shared set, asks the backend's
:meth:`~repro.graphs.bitset.BitsetBackend.distinct_reach_masks` for the
distinct masks as a plain ascending set and
:meth:`~repro.graphs.bitset.BitsetBackend.find_disjoint_pair` whether any
two of them are disjoint; when none are, the core performed ``m(m−1)/2``
checks over its ``m`` masks, whatever their order.  Only a shared set that
has a disjoint pair gets the ordered pass (:func:`_ordered_reach_masks`):
its masks in first-appearance order — private sets outer, in enumeration
order; nodes inner, ascending — each with one ``(node, private set)``
witness, scanned for the lexicographically first disjoint pair.  The sweep
stops at that set, so the ordered pass runs at most once per check.  The
order is what pins the violation witness and ``checks_performed``, and
it lives here rather than in a backend, so every backend yields an
identical :class:`~repro.conditions.certificates.ConditionReport`.

Private suspicion sets come from one cached table of every subset of
``range(n)`` of size ``≤ budget`` (:func:`_subset_table`), filtered to the
sets that avoid the shared exclusion; combinations of an ascending sublist
are exactly the filtered combinations of the whole list, so the order is
the same as enumerating the live nodes' subsets directly.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from operator import index as as_index
from typing import Any, Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from repro.conditions.certificates import ConditionReport, ReachViolation
from repro.exceptions import ConditionError, InvalidFaultBoundError
from repro.graphs.bitset import BitsetIndex
from repro.graphs.digraph import DiGraph, Node


# ----------------------------------------------------------------------
# subset enumeration helpers
# ----------------------------------------------------------------------
def iter_subsets(items: Sequence[Node], max_size: int) -> Iterator[FrozenSet[Node]]:
    """All subsets of ``items`` with ``0 ≤ |subset| ≤ max_size`` (small first)."""
    if max_size < 0:
        raise InvalidFaultBoundError(max_size)
    bound = min(max_size, len(items))
    for size in range(bound + 1):
        for combo in combinations(items, size):
            yield frozenset(combo)


@lru_cache(maxsize=16)
def _subset_table(n: int, max_size: int) -> Tuple[int, ...]:
    """Bitmasks of all subsets of ``range(n)`` with size ``≤ max_size``,
    small first, each size in lexicographic order.

    Cached: the 2-reach core filters the same table once per shared set.
    """
    table: List[int] = []
    for size in range(min(max_size, n) + 1):
        for combo in combinations(range(n), size):
            mask = 0
            for bit in combo:
                mask |= 1 << bit
            table.append(mask)
    return tuple(table)


# ----------------------------------------------------------------------
# core sweeps (operate on a BitsetIndex, return index-level tuples)
# ----------------------------------------------------------------------
def _disjoint_scan(
    index: BitsetIndex, masks: Sequence[int]
) -> Tuple[Optional[Tuple[int, int]], int]:
    """Backend-routed all-pairs disjointness scan with exact accounting.

    Returns ``(pair, checks)`` where ``pair`` is the lexicographically first
    ``(a, b)`` with ``masks[a] & masks[b] == 0`` (the contract every backend
    honours) and ``checks`` is precisely the number of pair tests a serial
    nested loop would have performed before stopping there — pairs before
    row ``a`` plus the ``b - a`` tests inside it — so reports are identical
    whichever backend did the scan.
    """
    pair = index.backend.find_disjoint_pair(masks)
    m = len(masks)
    if pair is None:
        return None, m * (m - 1) // 2
    a, b = pair
    return pair, a * (m - 1) - a * (a - 1) // 2 + (b - a)


def _one_reach_core(
    index: BitsetIndex, shared_mask: int
) -> Tuple[Optional[Tuple[int, int, int, int]], int]:
    """Pairwise reach-intersection check under one shared exclusion.

    Returns ``(violation, checks)`` where ``violation`` is
    ``(u_index, 0, v_index, 0)`` or ``None``.
    """
    reach = index.reach_masks(shared_mask)
    outside = [i for i in range(index.n) if not (shared_mask & (1 << i))]
    pair, checks = _disjoint_scan(index, [reach[i] for i in outside])
    if pair is None:
        return None, checks
    return (outside[pair[0]], 0, outside[pair[1]], 0), checks


def _ordered_reach_masks(
    index: BitsetIndex, base_excluded_mask: int, private_masks: Sequence[int]
) -> Tuple[List[int], List[Tuple[int, int]]]:
    """The distinct reach masks of a 2-reach core in first-appearance order.

    An *entry* is a private set ``P`` (from ``private_masks``) and a node
    ``i`` outside ``base ∪ P``, with mask ``reach_i(base ∪ P)``.  Entries
    whose mask is every live node (all of ``V \\ base``) are dropped: such a
    mask meets every other reach set.  Returns ``(masks, witnesses)``: the
    remaining masks, each once, in order of first appearance with private
    sets outer (in ``private_masks`` order) and nodes inner (ascending
    bit), and per mask the ``(node_index, private_mask)`` of that first
    appearance.  Rows come through :meth:`BitsetIndex.reach_masks_many`
    (memo first, then one batched closure call); an excluded node's row is
    0, and a live node's reach set contains the node, so
    ``dict.fromkeys(row)`` lists a row's live masks in node order.
    """
    live = index.full_mask & ~base_excluded_mask
    witnesses: Dict[int, Tuple[int, int]] = {}
    rows = index.reach_masks_many(
        [base_excluded_mask | private_mask for private_mask in private_masks]
    )
    for private_mask, row in zip(private_masks, rows):
        for mask in dict.fromkeys(row):
            if mask and mask != live and mask not in witnesses:
                witnesses[mask] = (row.index(mask), private_mask)
    return list(witnesses), list(witnesses.values())


def _two_reach_core(
    index: BitsetIndex,
    f_budget: int,
    base_excluded_mask: int,
) -> Tuple[Optional[Tuple[int, int, int, int]], int]:
    """Check the 2-reach style intersection property above a base exclusion.

    For every pair of nodes ``u, v`` outside the base exclusion and every
    pair of private suspicion sets ``Fu, Fv`` (``|·| ≤ f_budget``, drawn from
    nodes outside the base exclusion, not containing their own node), check
    ``reach_v(base ∪ Fv) ∩ reach_u(base ∪ Fu) ≠ ∅``.

    The cheap pass asks the backend for the distinct non-trivial reach
    masks (ascending, no witnesses) and whether any two are disjoint; if
    none are, the answer is ``m(m−1)/2`` checks over its ``m`` masks.
    Otherwise the ordered pass (:func:`_ordered_reach_masks`) rebuilds the
    same masks in first-appearance order with witnesses, and the all-pairs
    scan over that order gives the first disjoint pair — hence the
    violation witness — and ``checks_performed``, identical on every
    backend.

    Returns ``(violation, checks)`` where ``violation`` is
    ``(u_index, fu_mask, v_index, fv_mask)`` or ``None``.
    """
    private_masks = [
        mask
        for mask in _subset_table(index.n, f_budget)
        if not mask & base_excluded_mask
    ]
    backend = index.backend
    masks = backend.distinct_reach_masks(index, base_excluded_mask, private_masks)
    if backend.find_disjoint_pair(masks) is None:
        m = len(masks)
        return None, m * (m - 1) // 2
    ordered, witnesses = _ordered_reach_masks(index, base_excluded_mask, private_masks)
    pair, checks = _disjoint_scan(index, ordered)
    u_index, fu_mask = witnesses[pair[0]]
    v_index, fv_mask = witnesses[pair[1]]
    return (u_index, fu_mask, v_index, fv_mask), checks


# ----------------------------------------------------------------------
# the shared-set enumeration
# ----------------------------------------------------------------------
#: Shared-exclusion masks swept per warm-up batch: closures for the whole
#: batch go through one :meth:`BitsetIndex.reach_masks_many` call before the
#: per-mask scan, so a violation wastes at most one batch of closures while
#: the (common, expensive) violation-free sweep runs fully batched.
_WARM_CHUNK = 64


def _sweep_shared(
    index: BitsetIndex, shared_budget: int, f_budget: int, mode: str
) -> Tuple[Optional[Tuple[int, int, int, int]], int, int]:
    """Sweep every shared exclusion of size ``≤ shared_budget``, small first,
    in warm-batched order; the first violation wins.

    Returns ``(violation, shared_mask, total_checks)``.
    """
    shared_masks = _subset_table(index.n, shared_budget)
    total = 0
    for start in range(0, len(shared_masks), _WARM_CHUNK):
        chunk = shared_masks[start : start + _WARM_CHUNK]
        if mode == "one":
            index.reach_masks_many(chunk)
        for shared_mask in chunk:
            if mode == "one":
                violation, checks = _one_reach_core(index, shared_mask)
            else:
                violation, checks = _two_reach_core(index, f_budget, shared_mask)
            total += checks
            if violation is not None:
                return violation, shared_mask, total
    return None, 0, total


def _build_violation(
    index: BitsetIndex,
    shared_mask: int,
    violation: Tuple[int, int, int, int],
) -> ReachViolation:
    """Convert a core violation tuple into a :class:`ReachViolation`."""
    u_index, fu_mask, v_index, fv_mask = violation
    u = index.nodes[u_index]
    v = index.nodes[v_index]
    shared = index.nodes_of(shared_mask)
    fu = index.nodes_of(fu_mask)
    fv = index.nodes_of(fv_mask)
    reach_u = index.nodes_of(index.reach_masks(shared_mask | fu_mask)[u_index])
    reach_v = index.nodes_of(index.reach_masks(shared_mask | fv_mask)[v_index])
    return ReachViolation(
        u=u,
        v=v,
        shared_fault_set=shared,
        fault_set_u=fu,
        fault_set_v=fv,
        reach_u=reach_u,
        reach_v=reach_v,
    )


# ----------------------------------------------------------------------
# public checkers
# ----------------------------------------------------------------------
def _plain_int(value: Any) -> Optional[int]:
    """``value`` as a plain ``int`` when it is an integer (``numpy.int64``
    included) other than a ``bool``; ``None`` otherwise."""
    if isinstance(value, bool):
        return None
    try:
        return as_index(value)
    except TypeError:
        return None


def validate_query(graph: DiGraph, f: Any, k: Any = 1) -> Tuple[int, int]:
    """Reject a malformed condition query before any enumeration starts.

    Shared by every condition checker: a bad fault bound raises
    :class:`InvalidFaultBoundError`; an empty graph or a bad ``k`` raises
    :class:`ConditionError` naming what is wrong.  Returns ``(f, k)`` as
    plain ints (an integer type such as ``numpy.int64`` is accepted, a
    ``bool`` is not), which the checkers use from then on.
    """
    plain_f = _plain_int(f)
    if plain_f is None or plain_f < 0:
        raise InvalidFaultBoundError(f)
    plain_k = _plain_int(k)
    if plain_k is None or plain_k < 1:
        raise ConditionError(f"k must be a positive integer, got {k!r}")
    if graph.num_nodes == 0:
        raise ConditionError("cannot evaluate conditions on an empty graph")
    return plain_f, plain_k


def check_one_reach(graph: DiGraph, f: int) -> ConditionReport:
    """Check the 1-reach condition (Definition 3).

    For any ``F`` with ``|F| ≤ f`` and any nodes ``u, v ∉ F``:
    ``reach_u(F) ∩ reach_v(F) ≠ ∅``.
    """
    f, _ = validate_query(graph, f)
    index = BitsetIndex.for_graph(graph)
    violation, shared_mask, checks = _sweep_shared(index, f, 0, "one")
    if violation is None:
        return ConditionReport(condition="1-reach", f=f, holds=True, checks_performed=checks)
    return ConditionReport(
        condition="1-reach",
        f=f,
        holds=False,
        reach_violation=_build_violation(index, shared_mask, violation),
        checks_performed=checks,
    )


def check_two_reach(graph: DiGraph, f: int) -> ConditionReport:
    """Check the 2-reach condition (Definition 3).

    For any nodes ``u, v`` and any ``Fu ∌ u``, ``Fv ∌ v`` with
    ``|Fu|, |Fv| ≤ f``: ``reach_v(Fv) ∩ reach_u(Fu) ≠ ∅``.
    """
    f, _ = validate_query(graph, f)
    index = BitsetIndex.for_graph(graph)
    violation, checks = _two_reach_core(index, f, 0)
    if violation is None:
        return ConditionReport(condition="2-reach", f=f, holds=True, checks_performed=checks)
    return ConditionReport(
        condition="2-reach",
        f=f,
        holds=False,
        reach_violation=_build_violation(index, 0, violation),
        checks_performed=checks,
    )


def check_three_reach(graph: DiGraph, f: int) -> ConditionReport:
    """Check the 3-reach condition (Definition 3) — the paper's tight condition.

    For any ``F, Fu, Fv`` with ``|F|, |Fu|, |Fv| ≤ f``, ``u ∉ F ∪ Fu`` and
    ``v ∉ F ∪ Fv``: ``reach_v(F ∪ Fv) ∩ reach_u(F ∪ Fu) ≠ ∅``.

    Equivalently (Appendix A): 2-reach holds in ``G_{V \\ F}`` for every
    ``F`` with ``|F| ≤ f`` — which is how the enumeration is organised.
    """
    f, _ = validate_query(graph, f)
    index = BitsetIndex.for_graph(graph)
    violation, shared_mask, checks = _sweep_shared(index, f, f, "two")
    if violation is None:
        return ConditionReport(condition="3-reach", f=f, holds=True, checks_performed=checks)
    return ConditionReport(
        condition="3-reach",
        f=f,
        holds=False,
        reach_violation=_build_violation(index, shared_mask, violation),
        checks_performed=checks,
    )


def check_k_reach(graph: DiGraph, f: int, k: int) -> ConditionReport:
    """Check the generalized k-reach condition (Definition 20).

    The condition grants each node an exclusion budget consisting of a shared
    set ``F`` of size ``≤ f`` when ``k`` is odd, plus ``⌊k/2⌋`` private sets
    of size ``≤ f`` each (a union of ``j`` sets of size ``≤ f`` is simply a
    set of size ``≤ j·f``, which is how the budget is enumerated).  For
    ``k = 1, 2, 3`` this coincides with the conditions of Definition 3 (the
    specialised checkers are used directly).
    """
    f, k = validate_query(graph, f, k)
    if k == 1:
        report = check_one_reach(graph, f)
    elif k == 2:
        report = check_two_reach(graph, f)
    elif k == 3:
        report = check_three_reach(graph, f)
    else:
        index = BitsetIndex.for_graph(graph)
        private_budget = (k // 2) * f
        shared_budget = f if k % 2 == 1 else 0
        violation, shared_mask, checks = _sweep_shared(
            index, shared_budget, private_budget, "two"
        )
        if violation is None:
            return ConditionReport(
                condition=f"{k}-reach", f=f, holds=True, checks_performed=checks
            )
        return ConditionReport(
            condition=f"{k}-reach",
            f=f,
            holds=False,
            reach_violation=_build_violation(index, shared_mask, violation),
            checks_performed=checks,
        )
    # Re-label the specialised report with the generic condition name.
    return ConditionReport(
        condition=f"{k}-reach",
        f=f,
        holds=report.holds,
        reach_violation=report.reach_violation,
        checks_performed=report.checks_performed,
    )


def max_tolerable_f(graph: DiGraph, k: int = 3, upper_bound: int = None) -> int:
    """Largest ``f`` for which the k-reach condition holds (resilience).

    Returns ``-1`` when even ``f = 0`` fails (e.g. a graph with no common
    influence source at all).  The search is linear in ``f`` because the
    conditions are monotone: enlarging ``f`` only adds constraints.
    """
    limit = graph.num_nodes if upper_bound is None else upper_bound
    best = -1
    for f in range(limit + 1):
        if check_k_reach(graph, f, k).holds:
            best = f
        else:
            break
    return best

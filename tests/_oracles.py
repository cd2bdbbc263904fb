"""Literal, definition-by-definition condition checkers (test oracles).

Straight transcriptions of the paper's definitions with no enumeration
shortcuts: every quantifier of the definition text becomes one loop.

* Definition 3 (1-, 2- and 3-reach), over the set-level
  :func:`~repro.graphs.reach.reach_set`;
* Definition 14 (``A →^x B``) and Definitions 16–18 (CCS, CCA, BCS), by
  enumerating every 3-way partition (``3^n`` of them).

They are exponentially slower than the checkers in
:mod:`repro.conditions.reach_conditions` and
:mod:`repro.conditions.partition_conditions`, and exist only so the tests
can validate those checkers against the paper's text on small graphs.
Inputs are validated by the checkers' shared
:func:`~repro.conditions.reach_conditions.validate_query`.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable

from repro.conditions.certificates import ConditionReport, PartitionViolation, ReachViolation
from repro.conditions.reach_conditions import iter_subsets, validate_query
from repro.graphs.digraph import DiGraph, Node
from repro.graphs.reach import reach_set


# ----------------------------------------------------------------------
# Definition 3: the reach conditions
# ----------------------------------------------------------------------
def _reach_report(
    condition: str,
    f: int,
    checks: int,
    u: Node,
    v: Node,
    shared: FrozenSet[Node],
    fu: FrozenSet[Node],
    fv: FrozenSet[Node],
    reach_u: FrozenSet[Node],
    reach_v: FrozenSet[Node],
) -> ConditionReport:
    return ConditionReport(
        condition=condition,
        f=f,
        holds=False,
        reach_violation=ReachViolation(
            u=u,
            v=v,
            shared_fault_set=shared,
            fault_set_u=fu,
            fault_set_v=fv,
            reach_u=reach_u,
            reach_v=reach_v,
        ),
        checks_performed=checks,
    )


def check_one_reach_naive(graph: DiGraph, f: int) -> ConditionReport:
    """Literal 1-reach check: every ``F`` with ``|F| ≤ f``, every pair outside ``F``."""
    validate_query(graph, f)
    nodes = graph.nodes
    checks = 0
    for shared in iter_subsets(nodes, f):
        outside = [node for node in nodes if node not in shared]
        reaches = {node: reach_set(graph, node, shared) for node in outside}
        for i, u in enumerate(outside):
            for v in outside[i + 1:]:
                checks += 1
                if not (reaches[u] & reaches[v]):
                    return _reach_report(
                        "1-reach", f, checks, u, v, shared, frozenset(), frozenset(),
                        reaches[u], reaches[v],
                    )
    return ConditionReport(condition="1-reach", f=f, holds=True, checks_performed=checks)


def check_two_reach_naive(graph: DiGraph, f: int) -> ConditionReport:
    """Literal 2-reach check: every pair ``u, v`` and every ``Fu ∌ u``, ``Fv ∌ v``."""
    validate_query(graph, f)
    nodes = graph.nodes
    checks = 0
    for i, u in enumerate(nodes):
        for v in nodes[i + 1:]:
            for fu in iter_subsets([x for x in nodes if x != u], f):
                reach_u = reach_set(graph, u, fu)
                for fv in iter_subsets([x for x in nodes if x != v], f):
                    checks += 1
                    reach_v = reach_set(graph, v, fv)
                    if not (reach_u & reach_v):
                        return _reach_report(
                            "2-reach", f, checks, u, v, frozenset(), fu, fv,
                            reach_u, reach_v,
                        )
    return ConditionReport(condition="2-reach", f=f, holds=True, checks_performed=checks)


def check_three_reach_naive(graph: DiGraph, f: int) -> ConditionReport:
    """Literal 3-reach check: every ``F``, ``Fu``, ``Fv`` and pair ``u, v``
    with ``u ∉ F ∪ Fu`` and ``v ∉ F ∪ Fv``."""
    validate_query(graph, f)
    nodes = graph.nodes
    checks = 0
    for shared in iter_subsets(nodes, f):
        for i, u in enumerate(nodes):
            if u in shared:
                continue
            for v in nodes[i + 1:]:
                if v in shared:
                    continue
                for fu in iter_subsets([x for x in nodes if x != u], f):
                    reach_u = reach_set(graph, u, shared | fu)
                    for fv in iter_subsets([x for x in nodes if x != v], f):
                        checks += 1
                        reach_v = reach_set(graph, v, shared | fv)
                        if not (reach_u & reach_v):
                            return _reach_report(
                                "3-reach", f, checks, u, v, shared, fu, fv,
                                reach_u, reach_v,
                            )
    return ConditionReport(condition="3-reach", f=f, holds=True, checks_performed=checks)


# ----------------------------------------------------------------------
# Definitions 14 and 16-18: the partition conditions
# ----------------------------------------------------------------------
def has_x_incoming(
    graph: DiGraph, source_set: Iterable[Node], target_set: Iterable[Node], x: int
) -> bool:
    """``A →^x B`` (Definition 14) — ``B`` has at least ``x`` distinct
    incoming neighbours in ``A``.

    Incoming neighbours of ``B`` are nodes outside ``B`` with an edge into
    ``B``; only those belonging to ``A`` are counted.
    """
    incoming = graph.in_neighborhood_of_set(set(target_set))
    return len(incoming & set(source_set)) >= x


def check_cca_literal(graph: DiGraph, f: int) -> ConditionReport:
    """Literal Definition 17 check by enumerating 3-way partitions."""
    validate_query(graph, f)
    nodes = graph.nodes
    checks = 0
    for assignment in range(3 ** len(nodes)):
        left, center, right = [], [], []
        value = assignment
        for node in nodes:
            bucket = value % 3
            value //= 3
            (left, center, right)[bucket].append(node)
        if not left or not right:
            continue
        checks += 1
        if has_x_incoming(graph, set(left) | set(center), right, f + 1):
            continue
        if has_x_incoming(graph, set(right) | set(center), left, f + 1):
            continue
        violation = PartitionViolation(
            fault_set=frozenset(),
            left=frozenset(left),
            center=frozenset(center),
            right=frozenset(right),
            left_incoming=len(graph.in_neighborhood_of_set(left) & (set(right) | set(center))),
            right_incoming=len(graph.in_neighborhood_of_set(right) & (set(left) | set(center))),
        )
        return ConditionReport(
            condition="CCA", f=f, holds=False, partition_violation=violation, checks_performed=checks
        )
    return ConditionReport(condition="CCA", f=f, holds=True, checks_performed=checks)


def _cca_literal_after_faults(
    graph: DiGraph, f: int, threshold: int, condition: str
) -> ConditionReport:
    """For every ``|F| ≤ f``: the literal CCA check with ``threshold`` on
    ``G_{V \\ F}`` (CCS uses threshold 0, BCS uses ``f``)."""
    validate_query(graph, f)
    total_checks = 0
    for fault in iter_subsets(graph.nodes, f):
        induced = graph.exclude_nodes(fault)
        if induced.num_nodes == 0:
            continue
        inner = check_cca_literal(induced, threshold)
        total_checks += inner.checks_performed
        if not inner.holds:
            found = inner.partition_violation
            violation = PartitionViolation(
                fault_set=fault,
                left=found.left,
                center=found.center,
                right=found.right,
                left_incoming=found.left_incoming,
                right_incoming=found.right_incoming,
            )
            return ConditionReport(
                condition=condition,
                f=f,
                holds=False,
                partition_violation=violation,
                checks_performed=total_checks,
            )
    return ConditionReport(condition=condition, f=f, holds=True, checks_performed=total_checks)


def check_bcs_literal(graph: DiGraph, f: int) -> ConditionReport:
    """Literal Definition 18 check: for every ``|F| ≤ f``, CCA holds on
    ``G_{V \\ F}``."""
    return _cca_literal_after_faults(graph, f, f, "BCS")


def check_ccs_literal(graph: DiGraph, f: int) -> ConditionReport:
    """Literal Definition 16 check: for every ``|F| ≤ f`` and every 3-way
    partition of ``V \\ F``, one side receives at least one incoming
    neighbour from the other side plus the center."""
    return _cca_literal_after_faults(graph, f, 0, "CCS")

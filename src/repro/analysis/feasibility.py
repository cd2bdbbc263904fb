"""Feasibility maps over graph families (the data behind Tables 1 and 2).

For every graph in a family and every fault bound of interest, evaluate the
conditions of the paper's two tables and return
:class:`~repro.conditions.certificates.FeasibilityRow` records.  The Table 1
reproduction additionally cross-checks the directed reach conditions against
the classical ``n`` / ``κ(G)`` counting conditions on undirected
(bidirected) graphs; the Table 2 reproduction cross-checks the reach
conditions against the partition conditions (Theorem 17).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.conditions.certificates import FeasibilityRow
from repro.conditions.partition_conditions import check_bcs, check_cca, check_ccs
from repro.conditions.reach_conditions import check_one_reach, check_three_reach, check_two_reach
from repro.graphs.digraph import DiGraph
from repro.graphs.properties import undirected_feasibility


@dataclass(frozen=True)
class UndirectedComparison:
    """Table 1 row: classical counting conditions vs reach conditions.

    On undirected (bidirected) graphs the directed reach conditions specialise
    to the classical conditions of Table 1; ``consistent`` records whether the
    two verdicts agree for every cell.
    """

    graph_name: str
    n: int
    kappa: int
    f: int
    classical_crash_sync: bool
    classical_crash_async: bool
    classical_byz: bool
    reach_1: bool
    reach_2: bool
    reach_3: bool

    @property
    def consistent(self) -> bool:
        """Whether reach-condition verdicts match the classical table cells."""
        return (
            self.classical_crash_sync == self.reach_1
            and self.classical_crash_async == self.reach_2
            and self.classical_byz == self.reach_3
        )


def compare_undirected(graph: DiGraph, f: int) -> UndirectedComparison:
    """Evaluate one Table 1 row for a bidirected graph."""
    classical = undirected_feasibility(graph, f)
    return UndirectedComparison(
        graph_name=graph.name or "<unnamed>",
        n=graph.num_nodes,
        kappa=classical.kappa,
        f=f,
        classical_crash_sync=classical.crash_synchronous,
        classical_crash_async=classical.crash_asynchronous,
        classical_byz=classical.byzantine_synchronous,
        reach_1=check_one_reach(graph, f).holds,
        reach_2=check_two_reach(graph, f).holds,
        reach_3=check_three_reach(graph, f).holds,
    )


#: The four cells of Table 2 with the condition that is tight for each.
TABLE2_CELLS: Tuple[Tuple[str, str], ...] = (
    ("crash / synchronous (exact)", "1-reach"),
    ("crash / asynchronous (approximate)", "2-reach"),
    ("Byzantine / synchronous (exact)", "3-reach"),
    ("Byzantine / asynchronous (approximate)", "3-reach"),
)


def directed_feasibility_row(graph: DiGraph, f: int) -> FeasibilityRow:
    """Evaluate every Table 2 cell (and the partition equivalents) on one digraph."""
    one = check_one_reach(graph, f).holds
    two = check_two_reach(graph, f).holds
    three = check_three_reach(graph, f).holds
    ccs = check_ccs(graph, f).holds
    cca = check_cca(graph, f).holds
    bcs = check_bcs(graph, f).holds
    return FeasibilityRow(
        graph_name=graph.name or "<unnamed>",
        n=graph.num_nodes,
        f=f,
        verdicts=(
            ("1-reach", one),
            ("2-reach", two),
            ("3-reach", three),
            ("CCS", ccs),
            ("CCA", cca),
            ("BCS", bcs),
            ("crash/sync", one),
            ("crash/async", two),
            ("byz/sync", three),
            ("byz/async", three),
        ),
    )


def equivalences_hold(row: FeasibilityRow) -> bool:
    """Theorem 17 check on a single feasibility row."""
    return (
        row.verdict("1-reach") == row.verdict("CCS")
        and row.verdict("2-reach") == row.verdict("CCA")
        and row.verdict("3-reach") == row.verdict("BCS")
    )

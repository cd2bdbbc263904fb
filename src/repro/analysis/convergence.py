"""Convergence analysis: measured ranges versus the paper's bounds.

Lemma 15 gives ``U[r+1] - µ[r+1] ≤ (U[r] - µ[r]) / 2``, hence by repetition
``U[r] - µ[r] ≤ K / 2^r`` and the termination rule of Section 4.6 (run the
first round ``r > log2(K/ε)``, which
:meth:`~repro.algorithms.base.ConsensusConfig.rounds_needed` computes).  The
helpers here are the one owner of the ``K / 2^r`` bound: they compare a
measured per-round range trajectory against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence


@dataclass(frozen=True)
class ConvergenceRow:
    """One round of the measured-vs-theoretical comparison."""

    round_index: int
    measured_range: float
    theoretical_bound: float

    @property
    def within_bound(self) -> bool:
        """``True`` when the measured range respects ``K / 2^r``."""
        return self.measured_range <= self.theoretical_bound + 1e-9


def theoretical_bound(initial_range: float, round_index: int) -> float:
    """``K / 2^r`` — the repeated-Lemma-15 bound."""
    return initial_range / (2 ** round_index)


def convergence_table(
    measured_ranges: Sequence[float], initial_range: Optional[float] = None
) -> List[ConvergenceRow]:
    """Pair every measured per-round range with its theoretical bound.

    ``initial_range`` defaults to the measured round-0 range (which is the
    honest input spread ``U[0] - µ[0]``).
    """
    if not measured_ranges:
        return []
    base = measured_ranges[0] if initial_range is None else initial_range
    return [
        ConvergenceRow(
            round_index=index,
            measured_range=value,
            theoretical_bound=theoretical_bound(base, index),
        )
        for index, value in enumerate(measured_ranges)
    ]


def all_within_bound(measured_ranges: Sequence[float], initial_range: Optional[float] = None) -> bool:
    """``True`` when every measured round respects the ``K / 2^r`` bound."""
    return all(row.within_bound for row in convergence_table(measured_ranges, initial_range))


def contraction_factors(measured_ranges: Sequence[float]) -> List[float]:
    """Per-round contraction ``range[r+1] / range[r]`` (skipping zero ranges).

    Lemma 15 promises factors ≤ 1/2; measured factors are usually far smaller
    because the midpoint update is pessimistically analysed in the proof.
    """
    factors: List[float] = []
    for previous, current in zip(measured_ranges, measured_ranges[1:]):
        if previous > 0:
            factors.append(current / previous)
    return factors

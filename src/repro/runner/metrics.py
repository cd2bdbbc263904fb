"""Metrics extracted from consensus executions.

A :class:`ConsensusOutcome` is the normalized result record every experiment
produces regardless of which algorithm ran: the honest outputs, whether the
three properties of Definition 1 held (ε-agreement, validity, termination),
the per-round value range (the quantity Lemma 15 bounds by ``K/2^r``), and
cost counters (messages, rounds, simulated time).  The benchmark harness
prints tables of these records; the test-suite asserts on their fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Mapping, Optional, Sequence

NodeId = Hashable


@dataclass
class ConsensusOutcome:
    """Normalized result of one consensus execution."""

    algorithm: str
    graph_name: str
    f: int
    epsilon: float
    faulty_nodes: frozenset
    honest_inputs: Dict[NodeId, float]
    outputs: Dict[NodeId, float]
    all_decided: bool
    rounds: int
    messages_sent: int = 0
    messages_delivered: int = 0
    simulated_time: float = 0.0
    per_round_ranges: List[float] = field(default_factory=list)
    behavior: str = ""
    seed: Optional[int] = None
    #: Fault-injection provenance (policy spec, control-trace digest and the
    #: loss/duplication counters); ``None`` unless the run had an *active*
    #: fault schedule, so fault-free outcomes serialize exactly as before.
    fault_summary: Optional[Dict[str, object]] = None

    # ------------------------------------------------------------------
    # Definition 1 properties
    # ------------------------------------------------------------------
    @property
    def output_range(self) -> float:
        """``max - min`` of honest outputs (infinite when someone never decided)."""
        if not self.outputs or not self.all_decided:
            return float("inf")
        values = list(self.outputs.values())
        return max(values) - min(values)

    @property
    def epsilon_agreement(self) -> bool:
        """Convergence property: all honest outputs within ``ε`` of each other."""
        return self.all_decided and self.output_range < self.epsilon

    @property
    def validity(self) -> bool:
        """Validity property: every honest output within the honest input range."""
        if not self.all_decided or not self.honest_inputs:
            return False
        low = min(self.honest_inputs.values())
        high = max(self.honest_inputs.values())
        tolerance = 1e-9
        return all(low - tolerance <= value <= high + tolerance for value in self.outputs.values())

    @property
    def termination(self) -> bool:
        """Termination property: every honest node produced an output."""
        return self.all_decided

    @property
    def correct(self) -> bool:
        """All three properties of Definition 1 at once."""
        return self.termination and self.validity and self.epsilon_agreement

    # ------------------------------------------------------------------
    def summary(self) -> str:
        """One-line human readable summary."""
        range_text = "∞" if self.output_range == float("inf") else f"{self.output_range:.6g}"
        if self.behavior:
            fault_text = self.behavior
        elif self.faulty_nodes:
            fault_text = f"{len(self.faulty_nodes)} faulty"
        else:
            fault_text = "no faults"
        return (
            f"{self.algorithm} on {self.graph_name} (f={self.f}, {fault_text}): "
            f"range={range_text} ε={self.epsilon} "
            f"agree={self.epsilon_agreement} valid={self.validity} "
            f"rounds={self.rounds} msgs={self.messages_delivered}"
        )


def per_round_ranges(value_histories: Mapping[NodeId, Sequence[float]]) -> List[float]:
    """``U[r] - µ[r]`` across nodes for every round index present in all histories.

    Histories may have different lengths when some node is a round ahead at
    the instant the run stopped; only the common prefix is reported.
    """
    if not value_histories:
        return []
    depth = min(len(history) for history in value_histories.values())
    ranges: List[float] = []
    for round_index in range(depth):
        values = [history[round_index] for history in value_histories.values()]
        ranges.append(max(values) - min(values))
    return ranges

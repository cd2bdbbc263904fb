"""Common configuration shared by every approximate-consensus protocol.

The paper's termination rule (Section 4.6) assumes the inputs lie in a known
range ``[0, K]`` and has every node run ``r > log2(K / ε)`` rounds.  The
:class:`ConsensusConfig` generalizes this slightly to an arbitrary known
range ``[input_low, input_high]`` (the algorithms only use the width) and
centralizes the round-count computation so the core algorithm, the baselines
and the experiment harness all terminate consistently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.exceptions import ProtocolError


@dataclass(frozen=True)
class ConsensusConfig:
    """Static parameters of an approximate-consensus execution.

    Attributes
    ----------
    f:
        Upper bound on the number of Byzantine nodes.
    epsilon:
        Agreement parameter ``ε`` — outputs of nonfaulty nodes must be within
        ``ε`` of each other.
    input_low / input_high:
        The a-priori known range containing every input (the paper's
        ``[0, K]``; only the width matters).
    path_policy:
        Flooding policy for the Byzantine-Witness algorithm: ``"redundant"``
        (faithful) or ``"simple"`` (cheaper ablation).
    max_rounds:
        Optional override of the number of value-update rounds; ``None``
        means the paper's ``⌊log2(K/ε)⌋ + 1`` rule.
    strict_topology_check:
        When ``True`` protocols verify their required topological condition
        at construction time and raise
        :class:`~repro.exceptions.InfeasibleTopologyError` if it fails.
    """

    f: int
    epsilon: float
    input_low: float = 0.0
    input_high: float = 1.0
    path_policy: str = "redundant"
    max_rounds: Optional[int] = None
    strict_topology_check: bool = False

    def __post_init__(self) -> None:
        if self.f < 0:
            raise ProtocolError("f must be non-negative")
        if self.epsilon <= 0:
            raise ProtocolError("epsilon must be positive")
        if self.input_high < self.input_low:
            raise ProtocolError("input_high must be >= input_low")

    @property
    def input_range(self) -> float:
        """The width ``K`` of the known input range."""
        return self.input_high - self.input_low

    def rounds_needed(self) -> int:
        """Number of value-update rounds before outputting (Section 4.6).

        The paper requires the first round ``r`` with ``r > log2(K/ε)``,
        i.e. ``⌊log2(K/ε)⌋ + 1`` rounds; zero rounds suffice when the whole
        input range is already within ``ε``.
        """
        if self.max_rounds is not None:
            if self.max_rounds < 0:
                raise ProtocolError("max_rounds must be non-negative")
            return self.max_rounds
        width = self.input_range
        if width <= self.epsilon:
            return 0
        return int(math.floor(math.log2(width / self.epsilon))) + 1

    def validate_input(self, value: float) -> float:
        """Check an input value lies inside the declared range."""
        if not (self.input_low <= value <= self.input_high):
            raise ProtocolError(
                f"input {value} outside the declared range "
                f"[{self.input_low}, {self.input_high}]"
            )
        return float(value)

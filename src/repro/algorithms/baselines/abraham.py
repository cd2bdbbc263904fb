"""Clique baseline in the style of Abraham, Amit and Dolev (OPODIS 2004).

The paper's algorithm generalizes the optimal-resilience asynchronous
approximate agreement of [1], which assumes a *complete* network with
``n > 3f``.  This module provides that special case as an executable
baseline (benchmark B1): every node

1. broadcasts its round-``r`` value directly to everyone,
2. *echo-broadcasts* every directly received value (a lightweight reliable
   broadcast: a value is **accepted** for an origin once ``n - f`` matching
   echoes arrived, so two honest nodes can never accept different values for
   the same origin when ``n > 3f``),
3. once values from ``n - f`` distinct origins are accepted, discards the
   ``f`` smallest and ``f`` largest accepted values and moves to the midpoint
   of the rest,
4. outputs after the usual ``⌊log2(K/ε)⌋ + 1`` rounds.

The structure (reliable broadcast + trim + midpoint) mirrors [1]; the witness
bookkeeping that [1] needs for its convergence proof is deliberately omitted
— this is a baseline for cost and behaviour comparison, not a verified
re-proof.  It only runs on complete graphs; the Byzantine-Witness algorithm
is the one that works on arbitrary 3-reach digraphs.

That omission has a cost: at ``n = 3f + 1`` the baseline can lose
ε-agreement.  On ``complete_digraph(4)`` with inputs ``{0: 0.0, 1: 1.0,
2: 0.4, 3: 0.6}``, ``f = 1``, ``ε = 0.3`` and node 3 faulty (``fixed-high``,
``equivocate`` or ``offset``), simulator seed 1 ends with honest outputs
1.0, 1.0 and 0.4 (``tests/test_baselines.py::TestCliqueBaselineAgreementLimit``,
a strict xfail).  The swept ``baselines_zoo`` cells do reach agreement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Tuple

from repro.algorithms.base import ConsensusConfig
from repro.algorithms.messages import EchoMessage, RoundValueMessage
from repro.exceptions import InfeasibleTopologyError, ProtocolError
from repro.graphs.digraph import DiGraph
from repro.graphs.properties import is_complete
from repro.network.node import Process

NodeId = Hashable


@dataclass
class _CliqueRoundState:
    """Bookkeeping of one asynchronous round of the clique baseline."""

    direct_values: Dict[NodeId, float] = field(default_factory=dict)
    #: (echoing node, origin) → echoed value (first echo per pair counts).
    echoes: Dict[Tuple[NodeId, NodeId], float] = field(default_factory=dict)
    accepted: Dict[NodeId, float] = field(default_factory=dict)
    advanced: bool = False


class AbrahamCliqueProcess(Process):
    """One node of the clique (complete-graph) baseline algorithm."""

    def __init__(
        self,
        node_id: NodeId,
        graph: DiGraph,
        initial_value: float,
        config: ConsensusConfig,
    ) -> None:
        super().__init__(node_id)
        if config.strict_topology_check and not is_complete(graph):
            raise InfeasibleTopologyError("the clique baseline requires a complete graph")
        self.graph = graph
        self.config = config
        self.n = graph.num_nodes
        if self.n <= 3 * config.f and config.strict_topology_check:
            raise InfeasibleTopologyError(
                f"the clique baseline requires n > 3f (n={self.n}, f={config.f})"
            )
        self.initial_value = config.validate_input(initial_value)
        self.state_value = self.initial_value
        self.total_rounds = config.rounds_needed()
        self.current_round = 0
        self.value_history = [self.initial_value]
        self._rounds: Dict[int, _CliqueRoundState] = {}

    # ------------------------------------------------------------------
    def _round_state(self, round_index: int) -> _CliqueRoundState:
        return self._rounds.setdefault(round_index, _CliqueRoundState())

    def on_start(self) -> None:
        """Begin round 0 (or decide right away when no rounds are needed)."""
        if self.total_rounds == 0:
            self.decide(self.state_value)
            return
        self._start_round(0)

    def _start_round(self, round_index: int) -> None:
        state = self._round_state(round_index)
        # Record the node's own value and own echo, then broadcast both.
        state.direct_values[self.node_id] = self.state_value
        state.echoes[(self.node_id, self.node_id)] = self.state_value
        self.broadcast(RoundValueMessage(round=round_index, value=self.state_value, origin=self.node_id))
        self.broadcast(EchoMessage(round=round_index, origin=self.node_id, value=self.state_value))
        self._evaluate(round_index)

    # ------------------------------------------------------------------
    def on_message(self, sender: NodeId, payload: Any) -> None:
        """Handle direct value broadcasts and echoes."""
        if isinstance(payload, RoundValueMessage):
            self._handle_direct(sender, payload)
        elif isinstance(payload, EchoMessage):
            self._handle_echo(sender, payload)

    def _handle_direct(self, sender: NodeId, message: RoundValueMessage) -> None:
        if message.origin != sender:
            return  # direct broadcasts must come from their claimed origin
        state = self._round_state(message.round)
        if sender in state.direct_values:
            return
        state.direct_values[sender] = message.value
        # Echo the first directly received value of each origin.
        state.echoes[(self.node_id, sender)] = message.value
        self.broadcast(EchoMessage(round=message.round, origin=sender, value=message.value))
        self._evaluate(message.round)

    def _handle_echo(self, sender: NodeId, message: EchoMessage) -> None:
        state = self._round_state(message.round)
        key = (sender, message.origin)
        if key in state.echoes:
            return
        state.echoes[key] = message.value
        self._evaluate(message.round)

    # ------------------------------------------------------------------
    def _evaluate(self, round_index: int) -> None:
        if round_index != self.current_round:
            return
        state = self._round_state(round_index)
        if state.advanced:
            return
        quorum = self.n - self.config.f
        # Acceptance: n - f matching echoes for one (origin, value) pair.
        counts: Dict[Tuple[NodeId, float], int] = {}
        for (echoer, origin), value in state.echoes.items():
            counts[(origin, value)] = counts.get((origin, value), 0) + 1
        for (origin, value), count in counts.items():
            if count >= quorum and origin not in state.accepted:
                state.accepted[origin] = value
        if len(state.accepted) < quorum:
            return
        state.advanced = True
        accepted_values = sorted(state.accepted.values())
        f = self.config.f
        kept = accepted_values[f: len(accepted_values) - f] if f else accepted_values
        if not kept:
            raise ProtocolError("clique baseline trimmed every accepted value (n <= 3f?)")
        self.state_value = (kept[0] + kept[-1]) / 2.0
        self.value_history.append(self.state_value)
        self.current_round = round_index + 1
        if self.current_round >= self.total_rounds:
            self.decide(self.state_value)
        else:
            self._start_round(self.current_round)

    @property
    def rounds_completed(self) -> int:
        """Number of completed value-update rounds."""
        return len(self.value_history) - 1


def create_clique_processes(
    graph: DiGraph, inputs: Dict[NodeId, float], config: ConsensusConfig
) -> Dict[NodeId, AbrahamCliqueProcess]:
    """One clique-baseline process per node of a complete graph."""
    missing = set(graph.nodes) - set(inputs)
    if missing:
        raise ProtocolError(f"missing inputs for nodes {sorted(map(repr, missing))}")
    return {
        node: AbrahamCliqueProcess(node, graph, inputs[node], config) for node in graph.nodes
    }

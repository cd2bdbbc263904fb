"""Executable version of Theorem 18 — necessity of the 3-reach condition.

The paper's necessity proof is an indistinguishability argument: when
3-reach fails there are nodes ``u, v`` and sets ``F, F_u, F_v`` whose reach
sets are disjoint, and the adversary can build three executions

* **e1** — every input 0, the nodes of ``F_v`` crashed from the start;
* **e2** — every input ε, the nodes of ``F_u`` crashed from the start;
* **e3** — inputs 0 on ``reach_v(F∪F_v)`` and ε on ``reach_u(F∪F_u)``, the
  nodes of ``F`` Byzantine (behaving towards each side as in the respective
  fault-free execution), and the messages crossing
  ``E(F_v, reach_v(F∪F_v)) ∪ E(F_u, reach_u(F∪F_u))`` delayed past both
  decision points —

so that ``e3`` looks exactly like ``e1`` to ``v`` and exactly like ``e2`` to
``u``, forcing outputs 0 and ε respectively and violating convergence.

This module makes the construction concrete:

* :func:`find_violation` extracts the witnessing certificate;
* :func:`build_schedule` turns it into the three execution descriptions
  (fault sets, inputs, delayed edges) and validates the structural facts the
  proof relies on (disjoint reach sets, disjoint edge sets out of ``F``);
* :func:`demonstrate_disagreement` runs a concrete terminating algorithm
  (the iterative trimmed-mean baseline) under the ``e3`` adversary and
  reports the resulting honest disagreement — an empirical witness that
  consensus genuinely fails on such graphs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, Optional, Set, Tuple

from repro.algorithms.baselines.iterative import trimmed_mean_update
from repro.conditions.certificates import ReachViolation
from repro.conditions.reach_conditions import check_three_reach
from repro.exceptions import ConditionError
from repro.graphs.bitset import BitsetIndex, iter_bits
from repro.graphs.digraph import DiGraph

NodeId = Hashable
Edge = Tuple[NodeId, NodeId]


@dataclass(frozen=True)
class ExecutionDescription:
    """One of the three executions of the Theorem 18 construction."""

    name: str
    inputs: Dict[NodeId, float]
    crashed: FrozenSet[NodeId]
    byzantine: FrozenSet[NodeId]
    delayed_edges: FrozenSet[Edge]
    expected_output_side: str = ""


@dataclass(frozen=True)
class IndistinguishabilitySchedule:
    """The full Theorem 18 construction extracted from a 3-reach violation."""

    violation: ReachViolation
    epsilon: float
    e1: ExecutionDescription
    e2: ExecutionDescription
    e3: ExecutionDescription

    @property
    def structural_facts_hold(self) -> bool:
        """The two disjointness facts the proof needs (Eq. 8 and the edge sets)."""
        reaches_disjoint = not (self.violation.reach_u & self.violation.reach_v)
        edges_u = {edge for edge in self.e3.delayed_edges if edge[1] in self.violation.reach_u}
        edges_v = {edge for edge in self.e3.delayed_edges if edge[1] in self.violation.reach_v}
        return reaches_disjoint and not (edges_u & edges_v)


def find_violation(graph: DiGraph, f: int) -> Optional[ReachViolation]:
    """The 3-reach violation certificate, or ``None`` when the condition holds."""
    report = check_three_reach(graph, f)
    return None if report.holds else report.reach_violation


def _edges_between(graph: DiGraph, sources, targets) -> Set[Edge]:
    """All ``(u, v)`` edges with ``u ∈ sources`` and ``v ∈ targets``.

    Runs on the shared bitmask engine: one successor-mask intersection per
    source node instead of a full edge-list scan (the Theorem 18 construction
    extracts these sets once per certificate)."""
    index = BitsetIndex.for_graph(graph)
    target_mask = index.mask_of(targets, ignore_missing=True)
    nodes = index.nodes
    edges: Set[Edge] = set()
    for u in sources:
        bit = index.index.get(u)
        if bit is None:
            continue
        for v_bit in iter_bits(index.succ_masks[bit] & target_mask):
            edges.add((u, nodes[v_bit]))
    return edges


def build_schedule(
    graph: DiGraph, violation: ReachViolation, epsilon: float = 1.0
) -> IndistinguishabilitySchedule:
    """Materialize the e1 / e2 / e3 executions of Theorem 18."""
    if epsilon <= 0:
        raise ConditionError("epsilon must be positive")
    nodes = list(graph.nodes)
    reach_u = violation.reach_u
    reach_v = violation.reach_v
    f_shared = violation.shared_fault_set
    fu = violation.fault_set_u
    fv = violation.fault_set_v

    e1 = ExecutionDescription(
        name="e1",
        inputs={node: 0.0 for node in nodes},
        crashed=frozenset(fv),
        byzantine=frozenset(),
        delayed_edges=frozenset(),
        expected_output_side=f"node {violation.v!r} outputs 0",
    )
    e2 = ExecutionDescription(
        name="e2",
        inputs={node: float(epsilon) for node in nodes},
        crashed=frozenset(fu),
        byzantine=frozenset(),
        delayed_edges=frozenset(),
        expected_output_side=f"node {violation.u!r} outputs ε",
    )
    inputs_e3: Dict[NodeId, float] = {}
    for node in nodes:
        if node in reach_v:
            inputs_e3[node] = 0.0
        elif node in reach_u:
            inputs_e3[node] = float(epsilon)
        else:
            inputs_e3[node] = float(epsilon) / 2.0
    delayed = _edges_between(graph, fv, reach_v) | _edges_between(graph, fu, reach_u)
    e3 = ExecutionDescription(
        name="e3",
        inputs=inputs_e3,
        crashed=frozenset(),
        byzantine=frozenset(f_shared),
        delayed_edges=frozenset(delayed),
        expected_output_side=(
            f"node {violation.v!r} outputs 0 while node {violation.u!r} outputs ε"
        ),
    )
    return IndistinguishabilitySchedule(
        violation=violation, epsilon=float(epsilon), e1=e1, e2=e2, e3=e3
    )


@dataclass
class DisagreementResult:
    """Outcome of the empirical disagreement demonstration."""

    output_u: float
    output_v: float
    epsilon: float
    rounds: int
    honest_outputs: Dict[NodeId, float] = field(default_factory=dict)

    @property
    def disagreement(self) -> float:
        """|output(u) - output(v)| of the two witness nodes."""
        return abs(self.output_u - self.output_v)

    @property
    def convergence_violated(self) -> bool:
        """``True`` when the witness nodes ended at least ``ε`` apart."""
        return self.disagreement >= self.epsilon - 1e-9


def demonstrate_disagreement(
    graph: DiGraph,
    violation: ReachViolation,
    epsilon: float = 1.0,
    rounds: int = 30,
) -> DisagreementResult:
    """Run a terminating algorithm under the e3 adversary and measure disagreement.

    A fixed-round trimmed-mean update stands in for the hypothetical
    algorithm ``A`` of the proof (it terminates no matter what).  The
    execution reproduces ``e3``:

    * only the nodes of ``F`` are Byzantine: they report 0 towards
      ``reach_v(F∪F_v)`` (as in e1) and ε towards ``reach_u(F∪F_u)`` (as in e2);
    * the messages from ``F_v`` into ``reach_v`` and from ``F_u`` into
      ``reach_u`` are withheld for the whole run — this emulates the
      *delays* of the asynchronous construction and is **not** a fault (the
      senders are honest, their messages are merely slower than the horizon);
    * every edge into ``reach_v`` originates in ``F ∪ F_v`` (by definition of
      the reach set), so the ``reach_v`` side only ever observes the value 0
      and node ``v`` outputs 0; symmetrically ``u`` outputs ε.
    """
    reach_u = violation.reach_u
    reach_v = violation.reach_v
    shared = violation.shared_fault_set
    fu = violation.fault_set_u
    fv = violation.fault_set_v
    schedule = build_schedule(graph, violation, epsilon)

    state: Dict[NodeId, float] = dict(schedule.e3.inputs)
    f = max(1, len(shared))

    for _round in range(rounds):
        inboxes: Dict[NodeId, Dict[NodeId, float]] = {node: {} for node in graph.nodes}
        for sender in graph.nodes:
            for receiver in graph.successors(sender):
                if sender in shared:
                    if receiver in reach_v:
                        inboxes[receiver][sender] = 0.0
                    elif receiver in reach_u:
                        inboxes[receiver][sender] = float(epsilon)
                    else:
                        inboxes[receiver][sender] = state[sender]
                    continue
                if sender in fv and receiver in reach_v:
                    continue  # delayed past the horizon (asynchrony, not a fault)
                if sender in fu and receiver in reach_u:
                    continue  # delayed past the horizon (asynchrony, not a fault)
                inboxes[receiver][sender] = state[sender]
        next_state = {}
        for node in graph.nodes:
            if node in shared:
                next_state[node] = state[node]
            else:
                next_state[node] = trimmed_mean_update(state[node], inboxes[node], f)
        state = next_state

    honest_outputs = {node: value for node, value in state.items() if node not in shared}
    return DisagreementResult(
        output_u=honest_outputs[violation.u],
        output_v=honest_outputs[violation.v],
        epsilon=float(epsilon),
        rounds=rounds,
        honest_outputs=honest_outputs,
    )

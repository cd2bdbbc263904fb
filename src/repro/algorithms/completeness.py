"""The Completeness condition — Algorithm 2 of the paper.

``Completeness(M_v, M_c, F_u)`` is evaluated by node ``v`` after it
FIFO-receives an announcement ``(M_c, COMPLETE(F_u))``: for every alternative
fault candidate ``F_w ≠ F_u`` and every node ``q`` of the source component
``S_{F_u, F_w}``, node ``v`` must have received the value
``value_q(M_c)`` from a set of propagation paths that cannot all be covered
by a single fault set of size ``≤ f`` lying outside the source component.
Intuitively: the values that the witness ``c`` vouches for must be confirmed
at ``v`` through enough independent routes that no (suspected) fault set
could have fabricated all of them.

Interpretation note (see DESIGN.md): the covering set is additionally
forbidden from containing the evaluating node ``v`` — every stored path
terminates at ``v``, so a literal reading would make ``{v}`` a universal
cover and the condition unsatisfiable, contradicting Lemma 8.  The proofs
(Equation (1), footnote 5) indeed quantify fault candidates over
``V \\ S \\ {v}``.

Single-node cover pre-check: for each source node ``q`` the member masks of
its confirming paths are ANDed once per call.  A group of paths has a
1-cover inside the allowed nodes iff that AND shares an allowed bit — an
allowed node lying on every path — and an empty group (AND ``= -1``) is
vacuously coverable.  For every ``f ≥ 1`` a 1-cover is an f-cover, so such a
group settles the verdict (``False``) on the spot.  Only the groups without
one reach the exact f-cover kernel, and only when ``f ≥ 2``: with ``f = 1``
the pre-check *is* the kernel's verdict (empty group → coverable; a path
with no candidate → an AND with no allowed bit → not coverable; a common
candidate → coverable), so no kernel call and no per-group mask list is
made.  Source components are walked in the topology's node order, so the
early exits do not depend on string hashing.
"""

from __future__ import annotations

from functools import reduce
from operator import and_
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Tuple

from repro.algorithms.messagesets import MessageSet
from repro.algorithms.topology import TopologyKnowledge
from repro.graphs.bitset import any_f_cover_masks

NodeId = Hashable


def completeness(
    message_set: MessageSet,
    witness_values: Mapping[NodeId, float],
    witness_fault_set: Iterable[NodeId],
    topology: TopologyKnowledge,
    evaluating_node: NodeId,
) -> bool:
    """Evaluate ``Completeness(M_v, M_c, F_u)`` (Algorithm 2).

    Parameters
    ----------
    message_set:
        ``M_v`` — all value messages node ``v`` has received this round.
    witness_values:
        The consistent value map of ``M_c`` (``value_q(M_c)`` for every
        initial node ``q`` present in the announcement).
    witness_fault_set:
        ``F_u`` — the suspected set of the announcement.
    topology:
        Shared precomputation (source components, fault-set list, ``f``).
    evaluating_node:
        The node ``v`` running the check (excluded from candidate covers).

    Returns
    -------
    bool
        ``True`` when, for every ``F_w ≠ F_u`` and every
        ``q ∈ S_{F_u, F_w}``, the paths carrying ``value_q(M_c)`` from ``q``
        admit **no** f-cover inside ``V \\ S_{F_u, F_w} \\ {v}``.
    """
    fault_set_u = frozenset(witness_fault_set)
    f = topology.f
    codec = message_set.codec
    evaluating_bit = 1 << codec.bit(evaluating_node)
    in_node_order = topology.in_node_order
    # Per source node, its confirming paths' member masks and their AND —
    # the nodes lying on every one of them.  A node ``q`` recurs in the
    # components of many ``F_w``, so both are read once per call.
    confirmations: Dict[NodeId, Tuple[List[int], int]] = {}
    # Groups with no single-node cover, for the exact f-cover search (only
    # needed when f ≥ 2; with f = 0 every group goes there).
    groups = []
    for fault_set_w in topology.fault_sets:
        if fault_set_w == fault_set_u:
            continue
        component = topology.source_component(fault_set_u, fault_set_w)
        # The f-cover search runs on member masks: candidate cover nodes are
        # path members outside ``S ∪ {v}``, so forbidden bits are cleared
        # from every mask (a node the codec never saw lies on no stored path
        # and cannot be part of a useful cover anyway).
        allowed_mask = ~(codec.mask_of(component, only_known=True) | evaluating_bit)
        for source_node in in_node_order(component):
            confirmation = confirmations.get(source_node)
            if confirmation is None:
                if source_node not in witness_values:
                    # The witness did not vouch for this node's value: we
                    # cannot confirm it yet, so the announcement is not
                    # complete.
                    return False
                masks = message_set.masks_from_with_value(
                    source_node, witness_values[source_node]
                )
                confirmation = confirmations[source_node] = (masks, reduce(and_, masks, -1))
            masks, shared = confirmation
            if f and shared & allowed_mask:
                # An allowed node on every confirming path covers them all
                # (vacuously so when there is no path at all).
                return False
            if f != 1:
                groups.append([mask & allowed_mask for mask in masks])
    # One batched query for the groups left: the numpy backend checks every
    # group's candidates in one vectorized sweep, the python backend keeps
    # its per-group early exit.  The verdict is an OR over groups, so
    # batching cannot change it.
    return not groups or not any_f_cover_masks(groups, f)


def completeness_deficit(
    message_set: MessageSet,
    witness_values: Mapping[NodeId, float],
    witness_fault_set: Iterable[NodeId],
    topology: TopologyKnowledge,
    evaluating_node: NodeId,
) -> Dict[NodeId, Optional[frozenset]]:
    """Diagnostic variant: for every source-component node whose confirmation
    is still coverable, report one covering set (or ``None`` for "no value in
    the announcement at all").  Used by tests and by the examples to explain
    *why* a node is still waiting."""
    from repro.graphs.paths import find_f_cover

    fault_set_u = frozenset(witness_fault_set)
    f = topology.f
    deficits: Dict[NodeId, Optional[frozenset]] = {}
    for fault_set_w in topology.fault_sets:
        if fault_set_w == fault_set_u:
            continue
        component = topology.source_component(fault_set_u, fault_set_w)
        for source_node in topology.in_node_order(component):
            if source_node in deficits:
                continue
            if source_node not in witness_values:
                deficits[source_node] = None
                continue
            expected = witness_values[source_node]
            confirming_paths = message_set.paths_from_with_value(source_node, expected)
            forbidden = set(component) | {evaluating_node}
            cover = find_f_cover(confirming_paths, f, forbidden=forbidden)
            if cover is not None:
                deficits[source_node] = cover
    return deficits

"""Filter-and-Average — Algorithm 3 of the paper.

Once a node's Byzantine-Witness round fires (Verify succeeded in one parallel
thread), the node turns its received message history into the next state
value:

1. sort all received ``(value, path)`` messages by value (line 1);
2. remove the longest *prefix* whose propagation paths admit an f-cover
   (values that a single fault set of size ``≤ f`` could have fabricated —
   line 2/4);
3. symmetrically remove the longest such *suffix* (line 3/4);
4. output the midpoint ``(max + min) / 2`` of what remains (line 5).

Interpretation note (see DESIGN.md): covers never contain the evaluating
node — every path terminates at it, so a literal cover could always be
``{v}`` and the whole vector would be trimmed, contradicting Theorem 11.
Consequently the node's own value (path ``⟨v⟩``) always survives trimming and
the trimmed vector is never empty for a correctly configured run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, List, Optional, Tuple

from repro.algorithms.messagesets import MessageSet
from repro.exceptions import ProtocolError
from repro.graphs.paths import has_f_cover

NodeId = Hashable
Path = Tuple[NodeId, ...]
Entry = Tuple[float, Path]


@dataclass
class FilterResult:
    """Outcome of one Filter-and-Average invocation (kept for metrics/tests)."""

    new_value: float
    sorted_entries: List[Entry] = field(default_factory=list)
    trimmed_low: int = 0
    trimmed_high: int = 0

    @property
    def kept_entries(self) -> List[Entry]:
        """The entries that survived trimming."""
        end = len(self.sorted_entries) - self.trimmed_high
        return self.sorted_entries[self.trimmed_low:end]

    @property
    def kept_values(self) -> List[float]:
        """Values of the surviving entries."""
        return [value for value, _ in self.kept_entries]


def _longest_coverable_prefix(
    entries: List[Entry],
    f: int,
    evaluating_node: NodeId,
    masks: Optional[List[int]] = None,
    allowed_mask: int = 0,
) -> int:
    """Length of the longest prefix whose path set admits an f-cover.

    Monotone in the prefix length (a cover of a longer prefix covers every
    shorter one), so a linear scan that stops at the first uncoverable prefix
    is exact.  For ``f ≤ 1`` an incremental running-intersection computation
    is used (a single node covers a path set iff it lies on every path) —
    on member masks when the caller provides them (``masks[i]`` matching
    ``entries[i]``, ``allowed_mask`` clearing the evaluating node's bit);
    higher ``f`` falls back to the generic hitting-set search per prefix.
    """
    if f <= 0 or not entries:
        return 0
    if f == 1:
        if masks is not None:
            common = allowed_mask
            length = 0
            for index, mask in enumerate(masks):
                common &= mask
                if not common:
                    break
                length = index + 1
            return length
        common = None
        length = 0
        for index, (_, path) in enumerate(entries):
            nodes = set(path) - {evaluating_node}
            common = nodes if common is None else (common & nodes)
            if not common:
                break
            length = index + 1
        return length
    length = 0
    for end in range(1, len(entries) + 1):
        paths = [path for _, path in entries[:end]]
        if has_f_cover(paths, f, forbidden={evaluating_node}):
            length = end
        else:
            break
    return length


def filter_and_average(
    message_set: MessageSet, f: int, evaluating_node: NodeId
) -> FilterResult:
    """Run Algorithm 3 on a round's message history.

    Parameters
    ----------
    message_set:
        ``M_v`` at the moment Filter-and-Average is called.
    f:
        Fault bound used for the trimming covers.
    evaluating_node:
        The node running the computation (never part of a cover; its own
        value is therefore never trimmed).

    Raises
    ------
    ProtocolError
        If the trimmed vector ends up empty — impossible when the node's own
        value is present (as the BW algorithm guarantees), so an empty result
        indicates a mis-configured direct invocation.
    """
    masks: Optional[List[int]] = None
    if f == 1:
        entries, masks = message_set.sorted_entries_and_masks()
    else:
        entries = message_set.sorted_entries()
    if not entries:
        raise ProtocolError("Filter-and-Average called on an empty message set")
    allowed_mask = 0
    if masks is not None:
        allowed_mask = ~(1 << message_set.codec.bit(evaluating_node))

    trimmed_low = _longest_coverable_prefix(
        entries, f, evaluating_node, masks=masks, allowed_mask=allowed_mask
    )
    trimmed_high = _longest_coverable_prefix(
        list(reversed(entries)),
        f,
        evaluating_node,
        masks=None if masks is None else masks[::-1],
        allowed_mask=allowed_mask,
    )

    kept = entries[trimmed_low: len(entries) - trimmed_high]
    if not kept:
        raise ProtocolError(
            "Filter-and-Average trimmed every value; the evaluating node's own "
            "value must be part of the message set"
        )
    values = [value for value, _ in kept]
    new_value = (max(values) + min(values)) / 2.0
    return FilterResult(
        new_value=new_value,
        sorted_entries=entries,
        trimmed_low=trimmed_low,
        trimmed_high=trimmed_high,
    )

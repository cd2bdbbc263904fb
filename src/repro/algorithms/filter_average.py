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

Value groups
------------
The sort orders ties by path (the tie rule: equal values in lexicographic
path order), so the sorted list is a run of *value groups*, each holding
the paths that carry one value.  Prefix coverability is monotone (a cover
of a longer prefix covers every shorter one), so the trim works group by
group: a whole group goes when the prefix through it still has an f-cover,
and only the group where the cover breaks is walked entry by entry, in path
order (reverse path order from the top).  The midpoint reads just the two
groups where the trims stop, so no full sort is made: the sorted entry list
is built only when a caller asks for :attr:`FilterResult.sorted_entries`.
The f-cover tests run on member masks with the evaluating node's bit
cleared; for ``f = 1`` a prefix has a cover iff an allowed node lies on all
of its paths, a running AND.

Interpretation note (see DESIGN.md): covers never contain the evaluating
node — every path terminates at it, so a literal cover could always be
``{v}`` and the whole vector would be trimmed, contradicting Theorem 11.
Consequently the node's own value (path ``⟨v⟩``) always survives trimming and
the trimmed vector is never empty for a correctly configured run.
"""

from __future__ import annotations

from functools import reduce
from itertools import islice
from operator import and_
from typing import TYPE_CHECKING, Hashable, Iterable, List, Optional, Tuple

from repro.exceptions import ProtocolError
from repro.graphs.bitset import has_f_cover_masks

if TYPE_CHECKING:  # annotations only: the set is read through its methods
    from repro.algorithms.messagesets import MessageSet

NodeId = Hashable
Path = Tuple[NodeId, ...]
Entry = Tuple[float, Path]


class FilterResult:
    """Outcome of one Filter-and-Average invocation (kept for metrics/tests).

    ``trimmed_low`` and ``trimmed_high`` count the entries trimmed from each
    end of the sorted list.  The list itself is rebuilt on first access from
    the message set's first ``size`` entries — the set only grows, so those
    are exactly the entries the invocation saw.
    """

    __slots__ = ("new_value", "trimmed_low", "trimmed_high", "_message_set", "_size", "_sorted")

    def __init__(
        self,
        new_value: float,
        trimmed_low: int,
        trimmed_high: int,
        message_set: MessageSet,
        size: int,
    ) -> None:
        self.new_value = new_value
        self.trimmed_low = trimmed_low
        self.trimmed_high = trimmed_high
        self._message_set = message_set
        self._size = size
        self._sorted: Optional[List[Entry]] = None

    @property
    def sorted_entries(self) -> List[Entry]:
        """Every entry the invocation saw, sorted by value, ties by path."""
        if self._sorted is None:
            self._sorted = sorted(islice(self._message_set, self._size))
        return self._sorted

    @property
    def kept_entries(self) -> List[Entry]:
        """The entries that survived trimming."""
        end = len(self.sorted_entries) - self.trimmed_high
        return self.sorted_entries[self.trimmed_low:end]

    @property
    def kept_values(self) -> List[float]:
        """Values of the surviving entries."""
        return [value for value, _ in self.kept_entries]


def _trim(
    message_set: MessageSet,
    groups: Iterable[float],
    f: int,
    allowed_mask: int,
    from_top: bool,
) -> Tuple[int, Optional[List[float]], int]:
    """Algorithm 3's trim from one end, group by group.

    Returns the number of entries trimmed, the stored values of the group
    where the cover broke (in path order; ``None`` when every group went)
    and how many of that group's entries were trimmed.
    """
    trimmed = 0
    common = allowed_mask  # f = 1: the allowed nodes on every path so far
    prefix: List[int] = []  # f != 1: the masks so far, forbidden bits cleared
    for value in groups:
        masks = message_set.group_masks(value)
        if f == 1:
            through = reduce(and_, masks, common)
            if through:
                common = through
                trimmed += len(masks)
                continue
        else:
            through_masks = prefix + [mask & allowed_mask for mask in masks]
            if has_f_cover_masks(through_masks, f):
                prefix = through_masks
                trimmed += len(masks)
                continue
        # The cover breaks inside this group: walk it entry by entry.
        values, masks = message_set.value_group(value)
        walked = 0
        for mask in reversed(masks) if from_top else masks:
            if f == 1:
                common &= mask
                if not common:
                    break
            else:
                prefix.append(mask & allowed_mask)
                if not has_f_cover_masks(prefix, f):
                    break
            walked += 1
        return trimmed + walked, values, walked
    return trimmed, None, 0


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
    size = len(message_set)
    if not size:
        raise ProtocolError("Filter-and-Average called on an empty message set")
    groups = message_set.values_ascending()
    allowed_mask = ~(1 << message_set.codec.bit(evaluating_node))
    trimmed_low, low_group, low_walked = _trim(message_set, groups, f, allowed_mask, False)
    trimmed_high, high_group, _ = _trim(message_set, reversed(groups), f, allowed_mask, True)
    if trimmed_low + trimmed_high >= size:
        raise ProtocolError(
            "Filter-and-Average trimmed every value; the evaluating node's own "
            "value must be part of the message set"
        )
    # Something is kept, so both trims stopped inside a group, the low one
    # at or below the high one.  The kept minimum is the first kept entry;
    # the kept maximum is the first kept entry of the top group — the same
    # entry when both trims stopped in one group.
    minimum = low_group[low_walked]
    maximum = minimum if low_group[0] == high_group[0] else high_group[0]
    return FilterResult(
        new_value=(maximum + minimum) / 2.0,
        trimmed_low=trimmed_low,
        trimmed_high=trimmed_high,
        message_set=message_set,
        size=size,
    )

"""Message sets and their operations (Definitions 7–9).

A *message set* ``M`` is a collection of ``(value, propagation path)`` pairs.
The Byzantine-Witness algorithm manipulates message sets through three
operations, implemented here exactly as defined by the paper:

* **exclusion** ``M|_A`` — keep only messages whose path avoids ``A``
  (Definition 7);
* **consistency** — all paths starting at the same initial node report the
  same value (Definition 8), which makes ``value_v(M)`` well defined;
* **fullness** for ``(A, v)`` — every redundant path of ``G_{V\\A}``
  terminating at ``v`` appears in ``M`` (Definition 9).  Fullness is checked
  against a precomputed required-path set (see
  :class:`repro.algorithms.topology.TopologyKnowledge`).

The class stores at most one message per propagation path (the protocol only
accepts the first message received on each path, per Algorithm 4), and keeps
the insertion cheap because the BW algorithm adds messages one at a time from
inside an event handler.

Representation
--------------
Next to the tuple-keyed store every entry carries its *member mask* — the OR
of the path hops' bits under a :class:`~repro.graphs.bitset.PathCodec` — so
Definition 7 exclusion is one ``member_mask & excluded_mask`` test per entry
instead of a per-path ``set.intersection``.  The codec is shared with every
set derived through :meth:`exclude` (and can be shared process-wide by
passing one in), which keeps masks directly comparable across restrictions.
The tuple-level API (``entries``, ``paths``, ``value_on_path``, …) is an
unchanged thin view over the same store.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Set, Tuple

from repro.graphs.bitset import PathCodec

NodeId = Hashable
Path = Tuple[NodeId, ...]
Entry = Tuple[float, Path]


class MessageSet:
    """A set of ``(value, path)`` messages keyed by propagation path.

    Parameters
    ----------
    entries:
        Optional initial ``(value, path)`` pairs.
    codec:
        Optional shared :class:`~repro.graphs.bitset.PathCodec`.  When
        omitted a private codec is created that interns nodes on first
        sight; passing the codec of a shared bitmask engine makes the
        member masks interchangeable with engine masks (the BW hot path
        relies on this).
    """

    __slots__ = ("_by_path", "_mask_by_path", "_by_origin", "_origin_value_masks", "_codec")

    def __init__(
        self,
        entries: Optional[Iterable[Entry]] = None,
        codec: Optional[PathCodec] = None,
    ) -> None:
        self._by_path: Dict[Path, float] = {}
        #: path → member mask under ``self._codec`` (Definition 7 substrate).
        self._mask_by_path: Dict[Path, int] = {}
        # Per-origin index speeding up Algorithm 2's per-source-node queries.
        self._by_origin: Dict[NodeId, List[Path]] = {}
        #: origin → value → member masks; Algorithm 2's per-(source, value)
        #: confirming-path query without scanning the origin's path list.
        self._origin_value_masks: Dict[NodeId, Dict[float, List[int]]] = {}
        self._codec = codec if codec is not None else PathCodec()
        if entries is not None:
            for value, path in entries:
                self.add(value, path)

    @property
    def codec(self) -> PathCodec:
        """The path codec encoding this set's member masks."""
        return self._codec

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add(self, value: float, path: Path, mask: Optional[int] = None) -> bool:
        """Add a message; returns ``False`` when the path was already present.

        Only the first message per path is kept — the protocol ignores
        duplicates, so a Byzantine node cannot overwrite an already-received
        value by re-sending on the same path.  ``mask`` lets a caller that
        already encoded the path (the BW hot path) skip re-encoding; it must
        equal ``codec.member_mask(path)``.
        """
        path = tuple(path)
        if path in self._by_path:
            return False
        if mask is None:
            mask = self._codec.member_mask(path)
        self._insert(path, float(value), mask)
        return True

    def add_encoded(self, path: Path, value: float, mask: int) -> bool:
        """:meth:`add` for an already-encoded path (hot-path variant).

        ``path`` must be a tuple and ``mask`` its member mask under this
        set's codec; skips re-normalization and re-encoding.  The insertion
        is inlined — this runs once per delivered protocol message.
        """
        by_path = self._by_path
        if path in by_path:
            return False
        value = float(value)
        origin = path[0]
        by_path[path] = value
        self._mask_by_path[path] = mask
        origin_paths = self._by_origin.get(origin)
        if origin_paths is None:
            self._by_origin[origin] = [path]
        else:
            origin_paths.append(path)
        by_value = self._origin_value_masks.get(origin)
        if by_value is None:
            self._origin_value_masks[origin] = {value: [mask]}
        else:
            masks = by_value.get(value)
            if masks is None:
                by_value[value] = [mask]
            else:
                masks.append(mask)
        return True

    def value_masks_by_origin(self) -> Dict[NodeId, Dict[float, List[int]]]:
        """The internal ``origin → value → member masks`` index (read-only).

        The BW flood path derives consistent value maps of Definition 7
        restrictions directly from this index; callers must not mutate it.
        """
        return self._origin_value_masks

    def _insert(self, path: Path, value: float, mask: int) -> None:
        """Raw insertion of an already-encoded entry (no duplicate check)."""
        origin = path[0]
        self._by_path[path] = value
        self._mask_by_path[path] = mask
        origin_paths = self._by_origin.get(origin)
        if origin_paths is None:
            self._by_origin[origin] = [path]
        else:
            origin_paths.append(path)
        by_value = self._origin_value_masks.get(origin)
        if by_value is None:
            self._origin_value_masks[origin] = {value: [mask]}
        else:
            masks = by_value.get(value)
            if masks is None:
                by_value[value] = [mask]
            else:
                masks.append(mask)

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._by_path)

    def __iter__(self) -> Iterator[Entry]:
        for path, value in self._by_path.items():
            yield value, path

    def __contains__(self, path: Path) -> bool:
        return tuple(path) in self._by_path

    def entries(self) -> List[Entry]:
        """All ``(value, path)`` pairs."""
        return [(value, path) for path, value in self._by_path.items()]

    def paths(self) -> Set[Path]:
        """``P(M)`` — the propagation paths of the set."""
        return set(self._by_path.keys())

    def value_on_path(self, path: Path) -> Optional[float]:
        """The value received on a specific path (or ``None``)."""
        return self._by_path.get(tuple(path))

    def mask_on_path(self, path: Path) -> Optional[int]:
        """The member mask stored for ``path`` (or ``None`` when absent)."""
        return self._mask_by_path.get(tuple(path))

    def initial_nodes(self) -> Set[NodeId]:
        """All nodes appearing as ``init(p)`` for some message."""
        return set(self._by_origin)

    # ------------------------------------------------------------------
    # Definition 7: exclusion
    # ------------------------------------------------------------------
    def exclude(self, excluded: Iterable[NodeId]) -> "MessageSet":
        """``M|_A`` — messages whose propagation path avoids ``A``.

        One mask test per entry: a node the codec has never seen cannot lie
        on any stored path, so the exclusion mask only needs known bits.
        """
        excluded_mask = self._codec.mask_of(excluded, only_known=True)
        result = MessageSet(codec=self._codec)
        by_path = self._by_path
        for path, mask in self._mask_by_path.items():
            if mask & excluded_mask:
                continue
            result._insert(path, by_path[path], mask)
        return result

    # ------------------------------------------------------------------
    # Definition 8: consistency
    # ------------------------------------------------------------------
    def is_consistent(self) -> bool:
        """``True`` when all paths sharing an initial node report one value."""
        by_path = self._by_path
        for paths in self._by_origin.values():
            value = by_path[paths[0]]
            for path in paths:
                if by_path[path] != value:
                    return False
        return True

    def value_of(self, origin: NodeId) -> Optional[float]:
        """``value_origin(M)`` — the unique value reported for ``origin``.

        Returns ``None`` when no message from ``origin`` is present.  The set
        must be consistent for the notion to be meaningful; when it is not,
        the value of the first stored path is returned (callers check
        :meth:`is_consistent` first, as the algorithm does).  O(1) via the
        per-origin index.
        """
        paths = self._by_origin.get(origin)
        if not paths:
            return None
        return self._by_path[paths[0]]

    def value_map(self) -> Dict[NodeId, float]:
        """``{origin: value_origin(M)}`` for every initial node present."""
        by_path = self._by_path
        return {origin: by_path[paths[0]] for origin, paths in self._by_origin.items()}

    # ------------------------------------------------------------------
    # Definition 9: fullness
    # ------------------------------------------------------------------
    def is_full_for(self, required_paths: Iterable[Path]) -> bool:
        """``True`` when every required path is present in the set.

        ``required_paths`` is the precomputed set of (redundant or simple,
        depending on the flooding policy) paths of ``G_{V\\A}`` terminating at
        the evaluating node.
        """
        return all(tuple(path) in self._by_path for path in required_paths)

    def missing_paths(self, required_paths: Iterable[Path]) -> List[Path]:
        """The required paths not yet received (diagnostics / tests)."""
        return [tuple(path) for path in required_paths if tuple(path) not in self._by_path]

    # ------------------------------------------------------------------
    # queries used by Completeness and Filter-and-Average
    # ------------------------------------------------------------------
    def paths_from_with_value(self, origin: NodeId, value: float) -> List[Path]:
        """Paths of messages initiating at ``origin`` that carry exactly ``value``.

        This is the set ``P(M')`` of Algorithm 2 line 4.
        """
        return [
            path
            for path in self._by_origin.get(origin, ())
            if self._by_path[path] == value
        ]

    def masks_from_with_value(self, origin: NodeId, value: float) -> List[int]:
        """Member masks of :meth:`paths_from_with_value`'s paths.

        The Completeness condition (Algorithm 2) runs its f-cover search on
        these masks instead of the path tuples — indexed by ``(origin,
        value)``, so the query is two dict lookups instead of a scan of the
        origin's paths.  Callers must not mutate the returned list.
        """
        by_value = self._origin_value_masks.get(origin)
        if by_value is None:
            return []
        return by_value.get(value, [])

    def sorted_entries(self) -> List[Entry]:
        """Messages sorted by value (ties broken by path) — Algorithm 3 line 1.

        The default tuple ordering on ``(value, path)`` is exactly the
        ``(value, path)`` key; sorting without a key function keeps the
        comparison entirely in C, and so does building the pairs with
        ``zip`` (a dict's values and keys iterate in the same order).
        """
        by_path = self._by_path
        return sorted(zip(by_path.values(), by_path))

    def sorted_entries_and_masks(self) -> Tuple[List[Entry], List[int]]:
        """:meth:`sorted_entries` plus the member mask of each entry's path,
        in the same order — Filter-and-Average's cover scans read the masks
        in one pass instead of one :meth:`mask_on_path` call per entry."""
        entries = self.sorted_entries()
        mask_by_path = self._mask_by_path
        return entries, [mask_by_path[path] for _, path in entries]

    def values(self) -> List[float]:
        """All carried values (with multiplicity, one per path)."""
        return list(self._by_path.values())

    def __repr__(self) -> str:
        return f"<MessageSet paths={len(self._by_path)} origins={len(self._by_origin)}>"

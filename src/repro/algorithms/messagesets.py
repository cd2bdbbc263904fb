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
Entries are stored under dense integer *path ids* from a :class:`PathTable`:
one ``id → value`` and one ``id → member mask`` dict, plus an
``origin → value → member masks`` index.  The member mask is the OR of the
path hops' bits under a :class:`~repro.graphs.bitset.PathCodec`, so
Definition 7 exclusion is one ``member_mask & excluded_mask`` test per entry
instead of a per-path ``set.intersection``.  The codec and the table are
shared with every set derived through :meth:`exclude`, and can be shared
experiment-wide by passing them in (the BW processes share the ones of
their :class:`~repro.algorithms.topology.TopologyKnowledge`), which keeps
masks and ids comparable across restrictions.  The tuple-level API
(``entries``, ``paths``, ``value_on_path``, …) is a view through the table;
a standalone set numbers its paths in a private table.

A table numbers its first :attr:`PathTable.ordered` paths in lexicographic
tuple order, so on those ids integer order *is* path order and
Algorithm 3's ``(value, path)`` sort becomes an integer sort within each
value group.  A set holding any id outside that range (a forged path, a
private table) sorts the tuples instead; both give the same list.

Filter-and-Average reads the set by *value group* — the paths carrying one
value, from any origin: :meth:`MessageSet.values_ascending` lists the
groups, :meth:`MessageSet.group_masks` gives a group's member masks in no
particular order, both from the origin index, and only a group it has to
walk entry by entry is put in path order (:meth:`MessageSet.value_group`).
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Set, Tuple

from repro.graphs.bitset import PathCodec

NodeId = Hashable
Path = Tuple[NodeId, ...]
Entry = Tuple[float, Path]


class PathTable:
    """Dense ``path ↔ int`` numbering.

    ``paths[i]`` is the path with id ``i``.  The first :attr:`ordered` ids
    number their paths in lexicographic tuple order (see
    :meth:`lexicographic`); every later path is interned on first sight,
    beyond that range, until the table holds :attr:`limit` paths (``None``:
    no bound).
    """

    __slots__ = ("ids", "paths", "ordered", "limit")

    def __init__(self, limit: Optional[int] = None) -> None:
        self.ids: Dict[Path, int] = {}
        self.paths: List[Path] = []
        self.ordered = 0
        self.limit = limit

    @classmethod
    def lexicographic(cls, paths: Iterable[Path], limit: Optional[int] = None) -> "PathTable":
        """A table numbering ``paths`` in lexicographic tuple order.

        Paths whose hops do not compare (mixed node types) are numbered in
        ``repr`` order instead, with an empty lexicographic range.
        """
        table = cls(limit)
        unique = set(paths)
        try:
            table.paths = sorted(unique)
            table.ordered = len(unique)
        except TypeError:
            table.paths = sorted(unique, key=repr)
        table.ids = {path: index for index, path in enumerate(table.paths)}
        return table

    def intern(self, path: Path) -> Optional[int]:
        """The id of ``path``, interned when unseen; ``None`` when the table
        is full and does not know it."""
        path_id = self.ids.get(path)
        if path_id is None:
            paths = self.paths
            if self.limit is not None and len(paths) >= self.limit:
                return None
            path_id = self.ids[path] = len(paths)
            paths.append(path)
        return path_id

    def __len__(self) -> int:
        return len(self.paths)


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
    table:
        Optional shared :class:`PathTable` numbering the paths; a private
        one is created when omitted.  A path the shared table refuses (it
        is full) gets a negative id from a private overflow table, so every
        stored path keeps an id of its own.
    """

    __slots__ = ("_values", "_masks", "_by_origin", "_codec", "_table", "_overflow")

    def __init__(
        self,
        entries: Optional[Iterable[Entry]] = None,
        codec: Optional[PathCodec] = None,
        table: Optional[PathTable] = None,
    ) -> None:
        #: path id → value, in insertion order.
        self._values: Dict[int, float] = {}
        #: path id → member mask under ``self._codec`` (Definition 7 substrate).
        self._masks: Dict[int, int] = {}
        #: origin → value → member masks, each value keyed in order of first
        #: arrival: Algorithm 2's per-(source, value) confirming-path query,
        #: and the per-origin queries of Definition 8.
        self._by_origin: Dict[NodeId, Dict[float, List[int]]] = {}
        self._codec = codec if codec is not None else PathCodec()
        self._table = table if table is not None else PathTable()
        #: ids ``~i`` number the paths a full shared table refused.
        self._overflow: Optional[PathTable] = None
        if entries is not None:
            for value, path in entries:
                self.add(value, path)

    @property
    def codec(self) -> PathCodec:
        """The path codec encoding this set's member masks."""
        return self._codec

    # ------------------------------------------------------------------
    # path ids
    # ------------------------------------------------------------------
    def _path(self, path_id: int) -> Path:
        """The path stored under ``path_id``."""
        if path_id >= 0:
            return self._table.paths[path_id]
        return self._overflow.paths[~path_id]

    def _id_of(self, path: Path) -> Optional[int]:
        """The id of ``path`` if either table knows it (never interns)."""
        path_id = self._table.ids.get(path)
        if path_id is None and self._overflow is not None:
            path_id = self._overflow.ids.get(path)
            if path_id is not None:
                path_id = ~path_id
        return path_id

    def _paths_of(self, path_ids: Iterable[int]) -> Iterator[Path]:
        if self._overflow is None:
            return map(self._table.paths.__getitem__, path_ids)
        return map(self._path, path_ids)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add(self, value: float, path: Path, mask: Optional[int] = None) -> bool:
        """Add a message; returns ``False`` when the path was already present.

        Only the first message per path is kept — the protocol ignores
        duplicates, so a Byzantine node cannot overwrite an already-received
        value by re-sending on the same path.  ``mask`` lets a caller that
        already encoded the path skip re-encoding; it must equal
        ``codec.member_mask(path)``.
        """
        path = tuple(path)
        path_id = self._table.intern(path)
        if path_id is None:
            overflow = self._overflow
            if overflow is None:
                overflow = self._overflow = PathTable()
            path_id = ~overflow.intern(path)
        if mask is None:
            mask = self._codec.member_mask(path)
        return self.add_encoded(path_id, path[0], float(value), mask)

    def add_encoded(self, path_id: int, origin: NodeId, value: float, mask: int) -> bool:
        """:meth:`add` for an already-encoded path (hot-path variant).

        ``path_id`` is the path's id in this set's table, ``origin`` its
        first hop, ``value`` a float and ``mask`` its member mask under this
        set's codec.  Runs once per delivered protocol message.
        """
        values = self._values
        if path_id in values:
            return False
        values[path_id] = value
        self._masks[path_id] = mask
        by_value = self._by_origin.get(origin)
        if by_value is None:
            self._by_origin[origin] = {value: [mask]}
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
        return self._by_origin

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[Entry]:
        return zip(self._values.values(), self._paths_of(self._values))

    def __contains__(self, path: Path) -> bool:
        return self._id_of(tuple(path)) in self._values

    def entries(self) -> List[Entry]:
        """All ``(value, path)`` pairs."""
        return list(self)

    def paths(self) -> Set[Path]:
        """``P(M)`` — the propagation paths of the set."""
        return set(self._paths_of(self._values))

    def value_on_path(self, path: Path) -> Optional[float]:
        """The value received on a specific path (or ``None``)."""
        return self._values.get(self._id_of(tuple(path)))

    def mask_on_path(self, path: Path) -> Optional[int]:
        """The member mask stored for ``path`` (or ``None`` when absent)."""
        return self._masks.get(self._id_of(tuple(path)))

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
        result = MessageSet(codec=self._codec, table=self._table)
        result._overflow = self._overflow
        values = self._values
        path = self._path
        for path_id, mask in self._masks.items():
            if not mask & excluded_mask:
                result.add_encoded(path_id, path(path_id)[0], values[path_id], mask)
        return result

    # ------------------------------------------------------------------
    # Definition 8: consistency
    # ------------------------------------------------------------------
    def is_consistent(self) -> bool:
        """``True`` when all paths sharing an initial node report one value."""
        return all(len(by_value) == 1 for by_value in self._by_origin.values())

    def value_of(self, origin: NodeId) -> Optional[float]:
        """``value_origin(M)`` — the unique value reported for ``origin``.

        Returns ``None`` when no message from ``origin`` is present.  The set
        must be consistent for the notion to be meaningful; when it is not,
        the value of the first stored path is returned (callers check
        :meth:`is_consistent` first, as the algorithm does).  O(1) via the
        per-origin index.
        """
        by_value = self._by_origin.get(origin)
        if not by_value:
            return None
        return next(iter(by_value))

    def value_map(self) -> Dict[NodeId, float]:
        """``{origin: value_origin(M)}`` for every initial node present."""
        return {origin: next(iter(by_value)) for origin, by_value in self._by_origin.items()}

    # ------------------------------------------------------------------
    # Definition 9: fullness
    # ------------------------------------------------------------------
    def is_full_for(self, required_paths: Iterable[Path]) -> bool:
        """``True`` when every required path is present in the set.

        ``required_paths`` is the precomputed set of (redundant or simple,
        depending on the flooding policy) paths of ``G_{V\\A}`` terminating at
        the evaluating node.
        """
        return all(path in self for path in required_paths)

    def missing_paths(self, required_paths: Iterable[Path]) -> List[Path]:
        """The required paths not yet received (diagnostics / tests)."""
        return [tuple(path) for path in required_paths if path not in self]

    # ------------------------------------------------------------------
    # queries used by Completeness and Filter-and-Average
    # ------------------------------------------------------------------
    def paths_from_with_value(self, origin: NodeId, value: float) -> List[Path]:
        """Paths of messages initiating at ``origin`` that carry exactly ``value``.

        This is the set ``P(M')`` of Algorithm 2 line 4.
        """
        return [
            path
            for path, stored in zip(self._paths_of(self._values), self._values.values())
            if path[0] == origin and stored == value
        ]

    def masks_from_with_value(self, origin: NodeId, value: float) -> List[int]:
        """Member masks of :meth:`paths_from_with_value`'s paths.

        The Completeness condition (Algorithm 2) runs its f-cover search on
        these masks instead of the path tuples — indexed by ``(origin,
        value)``, so the query is two dict lookups instead of a scan of the
        origin's paths.  Callers must not mutate the returned list.
        """
        by_value = self._by_origin.get(origin)
        if by_value is None:
            return []
        return by_value.get(value, [])

    def values_ascending(self) -> List[float]:
        """The distinct stored values, ascending (one per value group)."""
        return sorted({value for by_value in self._by_origin.values() for value in by_value})

    def group_masks(self, value: float) -> List[int]:
        """Member masks of every path carrying ``value``, from any origin,
        in no particular order (two dict lookups per origin)."""
        masks: List[int] = []
        for by_value in self._by_origin.values():
            found = by_value.get(value)
            if found is not None:
                masks.extend(found)
        return masks

    def value_group(self, value: float) -> Tuple[List[float], List[int]]:
        """The stored values equal to ``value`` and their member masks, in
        path order — Algorithm 3's order within a value group.

        The stored values are returned rather than ``value`` itself because
        equal floats need not be identical (``-0.0 == 0.0``).
        """
        values = self._values
        ids = [path_id for path_id, stored in values.items() if stored == value]
        ids.sort()
        if ids and (ids[0] < 0 or ids[-1] >= self._table.ordered):
            ids.sort(key=self._path)
        masks = self._masks
        return [values[path_id] for path_id in ids], [masks[path_id] for path_id in ids]

    def values(self) -> List[float]:
        """All carried values (with multiplicity, one per path)."""
        return list(self._values.values())

    def __repr__(self) -> str:
        return f"<MessageSet paths={len(self._values)} origins={len(self._by_origin)}>"

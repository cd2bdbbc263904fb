"""Numpy bitset backend: batched mask arrays and boolean matrices.

The pure-python kernels in :mod:`repro.graphs.bitset` are already
word-parallel — a node set is one big-int, so every mask op processes 64
bits per interpreted step — which makes them genuinely hard to beat on a
*single* query at the paper's graph sizes.  Where they lose is the
*quadratic and batched* work the sweeps are made of: thousands of closures
under different exclusion sets, all-pairs disjointness scans over thousands
of reach masks, hitting-set checks across whole candidate grids.  This
backend vectorizes exactly those:

* **Batched closure** (:func:`_closure_blocks`, the one closure kernel):
  for ``B`` exclusion sets at once, an ``(n, B)`` node-major array holds
  every node's current reach mask (``n ≤ 64``), in uint32 words up to
  ``n = 32`` and uint64 above, and one Warshall pass — for each pivot
  ``k``, ``rows |= ((rows >> k) & 1) * rows[k]``, so every row containing
  bit ``k`` absorbs the contiguous pivot row — closes all of them in ``n``
  vectorized steps.  The batch is cut so one array stays within
  :data:`_ROW_BUDGET` words.  :meth:`closure_many` turns the blocks'
  columns into tuples.
* **Distinct reach masks** (:meth:`distinct_reach_masks`, the 2-reach
  core's existence pass): the kernel's blocks for every private set of the
  core, valid entries selected with a boolean mask (live node, mask ≠
  every live node), then sorted and deduplicated.  The ascending array
  stays in the kernel's word type and goes straight to the disjoint scan;
  no per-entry Python object is built.  The ordered, witness-keeping pass
  for a violating shared set is not a backend step (it lives in
  :mod:`repro.conditions.reach_conditions`).
* **Disjointness** (:meth:`find_disjoint_pair`): the all-pairs scan runs as
  blocked AND tables with an early exit per block, preserving
  the lexicographically-first contract of the reference.
* **f-covers** (:meth:`has_f_cover` / :meth:`any_f_cover`): paths ×
  candidates coverage matrices; single-node covers are one ``all/any``
  reduction — batched across a block of up to :data:`_COVER_BLOCK` origins
  in ``any_f_cover``, which stops at the first block holding a coverable
  origin — and pair covers are a full ``B × B`` broadcast; only covers of
  size ≥ 3 fall back to chunked combination enumeration.
* **SCC masks** (:meth:`scc_masks`): rows of ``D ∧ Dᵀ`` of the forward
  closure ``D`` — two nodes share a component iff each reaches the other.
  Emitted in ascending reachable-count order (ties by smallest mask), a
  valid reverse topological order of the condensation: if component ``X``
  reaches ``Y``, ``X``'s reach set strictly contains ``Y``'s.

Single-query closure and the source-component scan are *inherited* from the
reference backend: the big-int kernels win there and identical-result
delegation is the honest fast path.  Every returned value is plain Python
ints, so callers and the memo caches never see numpy scalars — except the
array :meth:`distinct_reach_masks` returns, which only this backend's
:meth:`find_disjoint_pair` and ``len`` read.

The module imports numpy at import time — :mod:`repro.graphs.bitset_backends`
registers this backend only when that import succeeds.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, islice
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.graphs.bitset import BitsetBackend, BitsetIndex

#: Words per batch of the closure kernel: a batch of ``B`` exclusion sets is
#: an ``(n, B)`` array, cut so ``B * n`` stays within this budget (at most
#: 1 MiB per array, at n > 32; 2048 exclusion sets at n=64).
_ROW_BUDGET = 1 << 17

#: Row-block height of the blocked disjointness scan (bounds the AND table
#: at ``block × len(masks)`` uint64 words).
_DISJOINT_BLOCK = 128

#: Candidate-combination chunk for size ≥ 3 f-cover searches.
_COMBO_BATCH = 8192

#: Groups per block of :meth:`NumpyBitsetBackend.any_f_cover`: the
#: single-node stage is batched across a block, and no coverage matrix is
#: built past the block holding the first coverable group.
_COVER_BLOCK = 64

#: Element bound for the all-pairs size-2 cover broadcast
#: (``candidates² × paths`` booleans); beyond it, chunked enumeration.
_PAIR_BROADCAST_LIMIT = 64 * 1024 * 1024


def _masks_to_matrix(masks: Sequence[int], width: int) -> np.ndarray:
    """Int bitmasks → a ``len(masks) × width`` boolean matrix (bit i → col i)."""
    nbytes = max(1, (width + 7) // 8)
    buf = b"".join(mask.to_bytes(nbytes, "little") for mask in masks)
    arr = np.frombuffer(buf, dtype=np.uint8).reshape(len(masks), nbytes)
    return np.unpackbits(arr, axis=1, bitorder="little")[:, :width].astype(bool)


def _rows_to_ints(matrix: np.ndarray) -> List[int]:
    """Boolean row vectors → plain Python int bitmasks (col i → bit i)."""
    packed = np.packbits(matrix, axis=-1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _closure_blocks(
    adj: Sequence[int], allowed: np.ndarray, n: int
) -> Iterator[np.ndarray]:
    """The closure kernel: closure rows for a batch of allowed masks
    (``n ≤ 64``), node-major, in blocks.

    ``allowed`` is a uint64 array of ``B`` allowed masks.  Each yielded
    block is an ``(n, b)`` array for the next ``b`` of them (``b · n``
    within :data:`_ROW_BUDGET`) whose column ``j`` equals the reference
    ``closure(adj, allowed[j], n)``: entry ``i`` is the set of nodes
    reachable from ``i`` inside the allowed mask (including ``i``), 0 when
    ``i`` is outside it.  Warshall's algorithm, vectorized across the
    batch and the nodes: pivot ``k`` is ``rows |= ((rows >> k) & 1) *
    rows[k]`` — every row holding bit ``k`` absorbs row ``k``, one
    contiguous vector — so after it a row holds every node reachable
    through intermediates ``≤ k``; pivots outside a row's allowed set never
    appear in it, so the restriction needs no extra work.  Masks are held
    in uint32 words up to ``n = 32``, in uint64 above.
    """
    dtype = np.uint32 if n <= 32 else np.uint64
    bits = np.left_shift(np.uint64(1), np.arange(n, dtype=np.uint64))
    seeds = (np.array(adj, dtype=np.uint64) | bits).astype(dtype)[:, None]  # i reaches i
    shifts = np.arange(n, dtype=dtype)[:, None]
    step = max(1, _ROW_BUDGET // n)
    for start in range(0, len(allowed), step):
        batch = allowed[None, start : start + step].astype(dtype)
        rows = (seeds & batch) * ((batch >> shifts) & 1)
        spread = np.empty_like(rows)
        for k in range(n):
            np.right_shift(rows, k, out=spread)
            np.bitwise_and(spread, 1, out=spread)
            np.multiply(spread, rows[k], out=spread)
            np.bitwise_or(rows, spread, out=rows)
        yield rows


@lru_cache(maxsize=1)
def _upper() -> np.ndarray:
    """``_upper()[a, b]`` is ``b >= a``: within a disjoint-scan block's
    leading square, column ``b`` (pair partner ``start + 1 + b``) lies
    above row ``a``.  Read only; built on first use rather than at import,
    since the first numpy operation of a process costs a few hundred KB of
    RSS that workloads without numpy work should not pay."""
    return ~np.tri(_DISJOINT_BLOCK, _DISJOINT_BLOCK, -1, dtype=bool)


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """The distinct entries of a 1-d array, ascending (sort, then keep each
    run's first entry; cheaper than the hash-based ``np.unique`` here)."""
    values = np.sort(values)
    keep = np.empty(len(values), dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _coverage_matrix(masks: Sequence[int]) -> np.ndarray:
    """Paths × candidates coverage matrix of non-empty path masks.

    Column ``b`` is candidate ``b``'s coverage over the paths; candidates
    are the bits of the union of the masks, in ascending bit order
    (matching :func:`repro.graphs.bitset.candidate_coverages`).
    """
    width = max(mask.bit_length() for mask in masks)
    members = _masks_to_matrix(masks, width)
    return members[:, members.any(axis=0)]


class NumpyBitsetBackend(BitsetBackend):
    """Vectorized backend for batched/quadratic mask work (the ``numpy``
    entry); scalar queries stay on the inherited big-int kernels."""

    name = "numpy"

    # -- batched closure ------------------------------------------------
    def closure_many(
        self, adj: Sequence[int], allowed_masks: Sequence[int], n: int
    ) -> List[Tuple[int, ...]]:
        count = len(allowed_masks)
        if count == 0:
            return []
        if n == 0:
            return [()] * count
        if n > 64 or count < 8:
            # beyond one word per row (or for tiny batches where the numpy
            # call overhead dominates) the reference loop wins
            return super().closure_many(adj, allowed_masks, n)
        allowed = np.array(allowed_masks, dtype=np.uint64)
        return [
            tuple(row)
            for block in _closure_blocks(adj, allowed, n)
            for row in block.T.tolist()
        ]

    def distinct_reach_masks(
        self, index: BitsetIndex, base_excluded_mask: int, private_masks: Sequence[int]
    ) -> Sequence[int]:
        n = index.n
        if n > 64 or len(private_masks) < 8:
            return super().distinct_reach_masks(index, base_excluded_mask, private_masks)
        live = index.full_mask & ~base_excluded_mask
        allowed = np.uint64(live) & ~np.array(private_masks, dtype=np.uint64)
        kept = [
            block[(block != 0) & (block != live)]
            for block in _closure_blocks(index.pred_masks, allowed, n)
        ]
        return _sorted_unique(np.concatenate(kept))

    # -- components -----------------------------------------------------
    def scc_masks(
        self, succ_masks: Sequence[int], allowed_mask: int, n: int
    ) -> List[int]:
        if n == 0 or allowed_mask == 0:
            return []
        forward = self.closure(succ_masks, allowed_mask, n)
        descendants = _masks_to_matrix(forward, n)
        component_rows = _rows_to_ints(descendants & descendants.T)
        reach_counts = descendants.sum(axis=1)
        keyed: List[Tuple[int, int]] = []
        seen = 0
        bits = allowed_mask
        while bits:
            low = bits & -bits
            bits ^= low
            if seen & low:
                continue
            node = low.bit_length() - 1
            mask = component_rows[node]
            seen |= mask
            keyed.append((int(reach_counts[node]), mask))
        keyed.sort()
        return [mask for _, mask in keyed]

    # -- f-covers -------------------------------------------------------
    def _combo_cover(self, coverage: np.ndarray, f: int) -> bool:
        """Exact 2..f cover search on a coverage matrix whose single-node
        stage already failed."""
        candidates = coverage.T  # (candidates, paths)
        # Dominated-candidate pruning (existence-preserving; see
        # repro.graphs.bitset.prune_dominated_coverages): drop i when its
        # coverage is a strict subset of some j's, or equals a j with j < i.
        subset = ~(candidates[:, None, :] & ~candidates[None, :, :]).any(axis=2)
        equal = subset & subset.T
        order = np.arange(len(candidates))
        dominated = (subset & ~equal) | (equal & (order[None, :] < order[:, None]))
        np.fill_diagonal(dominated, False)
        candidates = candidates[~dominated.any(axis=1)]
        total, paths = candidates.shape
        for size in range(2, min(f, total) + 1):
            if size == 2 and total * total * paths <= _PAIR_BROADCAST_LIMIT:
                pairs = candidates[:, None, :] | candidates[None, :, :]
                if pairs.all(axis=2).any():
                    return True
                continue
            combo_iter = combinations(range(total), size)
            while True:
                chunk = list(islice(combo_iter, _COMBO_BATCH))
                if not chunk:
                    break
                picked = candidates[np.array(chunk, dtype=np.intp)]
                if picked.any(axis=1).all(axis=1).any():
                    return True
        return False

    def has_f_cover(self, masks: Sequence[int], f: int) -> bool:
        if not masks:
            return True
        if any(mask == 0 for mask in masks):
            return False
        if f == 0:
            return False
        coverage = _coverage_matrix(masks)
        if coverage.all(axis=0).any():
            return True
        if f == 1:
            return False
        return self._combo_cover(coverage, f)

    def any_f_cover(self, groups: Sequence[Sequence[int]], f: int) -> bool:
        if f == 0:
            # Only an empty (vacuously coverable) group has a 0-cover.
            return any(not group for group in groups)
        for start in range(0, len(groups), _COVER_BLOCK):
            if self._block_has_cover(groups[start : start + _COVER_BLOCK], f):
                return True
        return False

    def _block_has_cover(self, groups: Sequence[Sequence[int]], f: int) -> bool:
        """:meth:`any_f_cover` on one block of groups (``f ≥ 1``)."""
        pending: List[np.ndarray] = []
        for group in groups:
            if not group:
                return True  # vacuously coverable origin
            if any(mask == 0 for mask in group):
                continue  # an uncoverable path: this origin can never pass
            pending.append(_coverage_matrix(group))
        if not pending:
            return False
        # Single-node stage, batched across the block: pad paths with
        # all-True rows (vacuously covered) and candidates with all-False
        # columns (cover nothing real).
        max_paths = max(cov.shape[0] for cov in pending)
        max_candidates = max(cov.shape[1] for cov in pending)
        stacked = np.zeros((len(pending), max_paths, max_candidates), dtype=bool)
        for g, cov in enumerate(pending):
            stacked[g, : cov.shape[0], : cov.shape[1]] = cov
            stacked[g, cov.shape[0] :, :] = True
        if stacked.all(axis=1).any():
            return True
        return f > 1 and any(self._combo_cover(cov, f) for cov in pending)

    # -- disjointness ---------------------------------------------------
    def find_disjoint_pair(self, masks: Sequence[int]) -> Optional[Tuple[int, int]]:
        total = len(masks)
        if total < 2:
            return None
        if isinstance(masks, np.ndarray):
            words = masks
        elif max(mask.bit_length() for mask in masks) > 64:
            return super().find_disjoint_pair(masks)
        else:
            words = np.array(masks, dtype=np.uint64)
        for start in range(0, total - 1, _DISJOINT_BLOCK):
            # rows a in [start, start + block) against columns b > start;
            # within the leading square, only b > a counts
            block = words[start : start + _DISJOINT_BLOCK, None] & words[None, start + 1 :]
            pairs = block == 0
            height = len(pairs)
            width = min(height, pairs.shape[1])
            pairs[:, :width] &= _upper()[:height, :width]
            rows = pairs.any(axis=1)
            if rows.any():
                first = int(rows.argmax())  # lowest a with a disjoint partner
                return start + first, start + 1 + int(pairs[first].argmax())  # lowest b > a
        return None


__all__ = ["NumpyBitsetBackend"]

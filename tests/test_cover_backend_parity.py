"""Cross-backend verdict parity of the f-cover kernels.

Completeness (Algorithm 2) asks ``any_f_cover`` whether any source node's
confirming paths admit an f-cover.  The numpy backend answers it and
``has_f_cover`` from paths × candidates coverage matrices (batched across a
block of groups for ``any_f_cover``, stopping at the first block with a
coverable group); the python backend from big-int coverage bitsets with an
early exit per group.  Their verdicts must agree on every input, including
the edge cases: empty groups (vacuously coverable), zero masks (a path no
candidate lies on) and masks up to 48 bits wide.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.bitset_backends import NUMPY_BACKEND, PYTHON_BACKEND, numpy_available

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="numpy backend not installed (repro[fast])"
)

WIDTH = 48

#: Path masks: dense random words and sparse few-node paths (the shape
#: real member masks have), plus the occasional zero mask.
masks = st.one_of(
    st.integers(min_value=0, max_value=(1 << WIDTH) - 1),
    st.sets(st.integers(min_value=0, max_value=WIDTH - 1), max_size=4).map(
        lambda bits: sum(1 << bit for bit in bits)
    ),
)
groups = st.lists(st.lists(masks, max_size=7), max_size=6)
fault_bounds = st.sampled_from([1, 2])


@settings(max_examples=300, deadline=None)
@given(groups, fault_bounds)
def test_any_f_cover_agrees(mask_groups, f):
    assert NUMPY_BACKEND.any_f_cover(mask_groups, f) == PYTHON_BACKEND.any_f_cover(
        mask_groups, f
    )


@settings(max_examples=300, deadline=None)
@given(st.lists(masks, max_size=8), fault_bounds)
def test_has_f_cover_agrees(path_masks, f):
    assert NUMPY_BACKEND.has_f_cover(path_masks, f) == PYTHON_BACKEND.has_f_cover(
        path_masks, f
    )


@settings(max_examples=200, deadline=None)
@given(groups, fault_bounds)
def test_any_f_cover_is_the_or_of_has_f_cover(mask_groups, f):
    expected = any(PYTHON_BACKEND.has_f_cover(group, f) for group in mask_groups)
    assert NUMPY_BACKEND.any_f_cover(mask_groups, f) == expected


def test_any_f_cover_stops_at_the_first_coverable_block(monkeypatch):
    # Group 0 has a pair cover and no single-node cover; the other 399 need
    # three nodes.  Like the python backend, numpy stops at group 0's block.
    from repro.graphs import bitset_numpy

    built = []
    coverage_matrix = bitset_numpy._coverage_matrix

    def counting(masks):
        built.append(len(masks))
        return coverage_matrix(masks)

    monkeypatch.setattr(bitset_numpy, "_coverage_matrix", counting)
    mask_groups = [[0b01, 0b10]] + [[0b001, 0b010, 0b100]] * 399
    assert NUMPY_BACKEND.any_f_cover(mask_groups, 2)
    assert 0 < len(built) <= bitset_numpy._COVER_BLOCK
    assert PYTHON_BACKEND.any_f_cover(mask_groups, 2)

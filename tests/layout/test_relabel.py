"""Morton transpose relabeling: TransposedView and the relabeled descent.

The transpose of a Morton matrix is a pure relabeling: quadrant (q, r)
of ``X^T`` is quadrant (r, q) of ``X`` transposed, recursively, with the
actual transposition happening only in the leaf view — zero data copies.
The step-table executor descends a relabeled buffer (an operand, or the
scratch of its kind) in ``RELABEL_ORDER`` and reads its leaves through
swapped strides; these tests rebuild dense images exactly that way.
"""

import numpy as np
import pytest

from repro.core.truncation import TruncationPolicy
from repro.core.winograd import _leaves
from repro.layout.convert import dense_to_morton, morton_to_dense
from repro.layout.matrix import MortonMatrix
from repro.layout.relabel import RELABEL_ORDER, quadrant_slices, transposed_view


@pytest.fixture
def rng():
    return np.random.default_rng(99)


def _morton(rng, rows, cols, tile=8):
    tr, tc, _ = TruncationPolicy.coerce(tile).plan(rows, cols, cols)
    mm = MortonMatrix.zeros(rows, cols, tr, tc)
    return dense_to_morton(rng.standard_normal((rows, cols)), mm)


class TestTransposedView:
    def test_geometry_swaps(self, rng):
        mm = _morton(rng, 48, 32)
        tv = transposed_view(mm)
        assert (tv.rows, tv.cols) == (mm.cols, mm.rows)
        assert (tv.tile_r, tv.tile_c) == (mm.tile_c, mm.tile_r)
        assert (tv.padded_rows, tv.padded_cols) == (
            mm.padded_cols, mm.padded_rows
        )
        assert tv.depth == mm.depth
        assert tv.transposed

    def test_double_wrap_unwraps(self, rng):
        mm = _morton(rng, 32, 32)
        assert transposed_view(transposed_view(mm)) is mm

    def test_no_data_copied(self, rng):
        mm = _morton(rng, 32, 32)
        tv = transposed_view(mm)
        assert tv.base.buf is mm.buf

    def test_quadrants_are_swapped_and_transposed(self, rng):
        mm = _morton(rng, 32, 32)
        tv = transposed_view(mm)
        t11, t12, t21, t22 = quadrant_slices(tv.buf, relabeled=True)
        m11, m12, m21, m22 = mm.quadrants()
        # (X^T)_12 is (X_21)^T, etc.  Quadrants of a padded matrix are
        # full, so their dense images compare shape-for-shape.
        geo = (tv.tile_r, tv.tile_c, tv.depth - 1)
        np.testing.assert_array_equal(_dense_of(t12, *geo), morton_to_dense(m21).T)
        np.testing.assert_array_equal(_dense_of(t21, *geo), morton_to_dense(m12).T)
        np.testing.assert_array_equal(_dense_of(t11, *geo), morton_to_dense(m11).T)
        np.testing.assert_array_equal(_dense_of(t22, *geo), morton_to_dense(m22).T)

    def test_leaf_view_is_transposed(self, rng):
        mm = _morton(rng, 8, 8)  # depth 0: a single leaf
        assert mm.depth == 0
        tv = transposed_view(mm)
        leaf = _leaves(tv.buf, tv.tile_r, tv.tile_c, True, 1)[0]
        assert np.shares_memory(leaf, mm.buf)
        np.testing.assert_array_equal(leaf, mm.leaf_view().T)

    def test_whole_view_represents_transpose(self, rng):
        mm = _morton(rng, 48, 32)
        tv = transposed_view(mm)
        np.testing.assert_array_equal(
            _dense_of(tv.buf, tv.tile_r, tv.tile_c, tv.depth)[: tv.rows, : tv.cols],
            morton_to_dense(mm).T,
        )


def _dense_of(buf, tile_r, tile_c, depth, relabeled=True) -> np.ndarray:
    """Materialise a Morton buffer as the executor descends it.

    ``tile_r x tile_c`` is the op-geometry leaf; quadrants come from
    :func:`quadrant_slices` and leaves from the executor's kernel views.
    """
    if depth == 0:
        return np.asarray(_leaves(buf, tile_r, tile_c, relabeled, 1)[0])
    q11, q12, q21, q22 = (
        _dense_of(q, tile_r, tile_c, depth - 1, relabeled)
        for q in quadrant_slices(buf, relabeled)
    )
    return np.vstack([np.hstack([q11, q12]), np.hstack([q21, q22])])


class TestRelabelScratch:
    """Scratch of a relabeled operand's kind descends in the same order."""

    def test_same_buffer_swapped_geometry(self, rng):
        mm = _morton(rng, 32, 48)
        quarter = mm.size // 4
        base = mm.buf.__array_interface__["data"][0]
        quads = quadrant_slices(mm.buf, relabeled=True)
        assert all(np.shares_memory(q, mm.buf) for q in quads)
        assert [q.__array_interface__["data"][0] for q in quads] == [
            base + i * quarter * mm.buf.itemsize for i in RELABEL_ORDER
        ]
        # Leaves read in (tile_r, tile_c) op geometry: the stored
        # (tile_c, tile_r) column-major tiles seen through swapped strides.
        leaves = _leaves(mm.buf, mm.tile_r, mm.tile_c, True, 4 ** mm.depth)
        assert leaves.shape[1:] == (mm.tile_r, mm.tile_c)
        assert np.shares_memory(leaves, mm.buf)

    def test_relabel_reads_native_writes(self, rng):
        # Writing through the native matrix then reading through the
        # relabeled descent must observe the transpose.
        tr, tc, _ = TruncationPolicy.coerce(4).plan(8, 8, 8)
        mm = MortonMatrix.zeros(8, 8, tr, tc)
        dense_to_morton(rng.standard_normal((8, 8)), mm)
        np.testing.assert_array_equal(
            _dense_of(mm.buf, mm.tile_c, mm.tile_r, mm.depth)[: mm.cols, : mm.rows],
            morton_to_dense(mm).T,
        )

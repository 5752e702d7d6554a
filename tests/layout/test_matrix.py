"""Unit tests for the MortonMatrix container."""

import numpy as np
import pytest

from repro.layout.convert import dense_to_morton, morton_to_dense
from repro.layout.matrix import MortonMatrix
from repro.layout.padding import TileRange, Tiling, select_common_tiling


def make(rows, cols, tile_range=TileRange()):
    plan = select_common_tiling((rows, cols), tile_range)
    assert plan is not None
    return MortonMatrix.zeros(rows, cols, plan[0], plan[1])


class TestConstruction:
    def test_zeros_is_zero(self):
        m = make(100, 80)
        assert np.all(m.buf == 0.0)

    def test_shapes(self):
        m = make(150, 150)
        assert m.shape == (150, 150)
        assert m.padded_rows == 152 and m.padded_cols == 152
        assert m.size == 152 * 152

    def test_buffer_length_validated(self):
        with pytest.raises(ValueError):
            MortonMatrix(
                buf=np.zeros(10), rows=4, cols=4, tile_r=2, tile_c=2, depth=1
            )

    def test_requires_1d_buffer(self):
        # 1-D for one matrix, 2-D (one item per row) for a stack; a stack's
        # rows must each hold one padded item.
        for shape in ((4, 4), (2, 2, 16)):
            with pytest.raises(ValueError):
                MortonMatrix(
                    buf=np.zeros(shape), rows=4, cols=4, tile_r=2, tile_c=2,
                    depth=1,
                )

    def test_logical_dims_within_padded(self):
        with pytest.raises(ValueError):
            MortonMatrix(
                buf=np.zeros(16), rows=5, cols=4, tile_r=2, tile_c=2, depth=1
            )

    def test_empty_mismatched_depths_rejected(self):
        with pytest.raises(ValueError):
            MortonMatrix.empty(
                4, 4, Tiling(n=4, tile=2, depth=1), Tiling(n=4, tile=4, depth=0)
            )


class TestFromDense:
    def test_roundtrip_identity(self, rng):
        a = rng.standard_normal((97, 143))
        m = MortonMatrix.from_dense(a)
        assert np.array_equal(m.to_dense(), a)

    def test_transpose_fused(self, rng):
        a = rng.standard_normal((60, 90))
        m = MortonMatrix.from_dense(a, transpose=True)
        assert m.shape == (90, 60)
        assert np.array_equal(m.to_dense(), a.T)

    def test_pad_region_zeroed(self, rng):
        a = rng.standard_normal((150, 150))
        m = MortonMatrix.from_dense(a)
        assert m.pad_is_zero()

    def test_extreme_aspect_ratio_degenerates_to_single_tile(self, rng):
        a = rng.standard_normal((100, 2))
        m = MortonMatrix.from_dense(a)
        assert m.depth == 0
        assert np.array_equal(m.to_dense(), a)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            MortonMatrix.from_dense(np.zeros(5))

    def test_float32_input_upcast(self):
        a = np.eye(10, dtype=np.float32)
        m = MortonMatrix.from_dense(a)
        assert m.buf.dtype == np.float64
        assert np.array_equal(m.to_dense(), a.astype(np.float64))


class TestQuadrants:
    def test_views_share_memory(self, rng):
        m = make(200, 200)
        q = m.quadrant(0, 1)
        q.buf[:] = 7.0
        quarter = m.size // 4
        assert np.all(m.buf[quarter : 2 * quarter] == 7.0)
        assert np.all(m.buf[:quarter] == 0.0)

    def test_order_is_nw_ne_sw_se(self, rng):
        a = rng.standard_normal((128, 128))
        m = MortonMatrix.from_dense(a)
        nw, ne, sw, se = m.quadrants()
        h = m.padded_rows // 2
        assert np.array_equal(nw.to_dense(), a[:h, :h])
        assert np.array_equal(se.to_dense(), a[h:, h:])
        assert np.array_equal(sw.to_dense(), a[h:, :h])
        assert np.array_equal(ne.to_dense(), a[:h, h:])

    def test_quadrants_contiguous(self):
        m = make(128, 128)
        for q in m.quadrants():
            assert q.buf.flags.c_contiguous

    def test_leaf_has_no_quadrants(self):
        m = make(8, 8)
        assert m.depth == 0
        with pytest.raises(ValueError):
            m.quadrant(0, 0)

    def test_bad_indices(self):
        m = make(200, 200)
        with pytest.raises(ValueError):
            m.quadrant(2, 0)


class TestLeafView:
    def test_fortran_order_view(self, rng):
        a = rng.standard_normal((8, 8))
        m = MortonMatrix.from_dense(a)
        v = m.leaf_view()
        assert v.shape == (8, 8)
        assert np.array_equal(v, a)
        assert not v.flags.owndata  # it is a view

    def test_requires_depth_zero(self):
        m = make(200, 200)
        with pytest.raises(ValueError):
            m.leaf_view()


class TestElementAccess:
    def test_matches_dense(self, rng):
        a = rng.standard_normal((33, 47))
        m = MortonMatrix.from_dense(a)
        for i, j in [(0, 0), (32, 46), (10, 20)]:
            assert m[i, j] == a[i, j]

    def test_out_of_logical_bounds(self):
        m = make(33, 47)
        with pytest.raises(IndexError):
            m[33, 0]


class TestCopy:
    def test_independent_buffer(self):
        m = make(40, 40)
        c = m.copy()
        c.buf[:] = 1.0
        assert np.all(m.buf == 0.0)


class TestStack:
    """A ``(batch, size)`` buffer stacks same-geometry items, one per row."""

    def stack(self, cap=3):
        tr, tc = select_common_tiling((40, 30))
        return MortonMatrix.zeros(40, 30, tr, tc, cap=cap, stagger=2)

    def test_item_aliases_its_row(self):
        s = self.stack()
        assert s.batch == 3 and s.buf.shape == (3, s.size)
        assert make(40, 30).batch is None
        item = s.item(1)
        assert item.batch is None and item.shape == (40, 30)
        item.buf[:] = 7.0
        assert np.all(s.buf[1] == 7.0)
        assert not s.buf[0].any() and not s.buf[2].any()

    @pytest.mark.parametrize("call", [
        lambda m: m.quadrant(0, 0),
        lambda m: m.quadrants(),
        lambda m: m.leaf_view(),
        lambda m: m.pad_is_zero(),
        lambda m: m[0, 0],
        lambda m: m.to_dense(),
        lambda m: dense_to_morton(np.ones((40, 30)), m),
        lambda m: morton_to_dense(m),
    ], ids=["quadrant", "quadrants", "leaf_view", "pad_is_zero", "getitem",
            "to_dense", "dense_to_morton", "morton_to_dense"])
    def test_single_item_methods_reject_a_stack(self, call):
        with pytest.raises(ValueError, match="stack"):
            call(self.stack())

    def test_item_needs_a_stack(self):
        with pytest.raises(ValueError, match="stack"):
            make(8, 8).item(0)

"""Unit tests for column-major <-> Morton conversion."""

import numpy as np
import pytest

from repro.layout.convert import _blocks, dense_to_morton, morton_to_dense
from repro.layout.matrix import MortonMatrix
from repro.layout.morton import element_offsets
from repro.layout.padding import TileRange, select_common_tiling


def empty_for(rows, cols, tile_range=TileRange()):
    plan = select_common_tiling((rows, cols), tile_range)
    assert plan is not None
    return MortonMatrix.empty(rows, cols, plan[0], plan[1])


SHAPES = [(1, 1), (7, 9), (16, 16), (64, 64), (65, 63), (150, 150), (513, 260)]


class TestRoundtrip:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_roundtrip_exact(self, rng, shape):
        a = rng.standard_normal(shape)
        m = empty_for(*shape)
        dense_to_morton(a, m)
        assert np.array_equal(morton_to_dense(m), a)

    def test_roundtrip_with_odd_tiles(self, rng):
        # 513 forces tile 33 / depth 4: odd tiles, genuine padding.
        a = rng.standard_normal((513, 513))
        m = empty_for(513, 513)
        dense_to_morton(a, m)
        assert m.tile_r == 33
        assert np.array_equal(morton_to_dense(m), a)

    def test_transpose_fusion(self, rng):
        a = rng.standard_normal((40, 70))
        m = empty_for(70, 40)
        dense_to_morton(a, m, transpose=True)
        assert np.array_equal(morton_to_dense(m), a.T)


class TestPadding:
    def test_straddling_tiles_zero_filled(self, rng):
        a = rng.standard_normal((150, 150))  # pads to 152
        m = empty_for(150, 150)
        m.buf[:] = np.nan  # poison: conversion must overwrite the pad
        dense_to_morton(a, m)
        assert not np.any(np.isnan(m.buf))
        assert m.pad_is_zero()

    def test_full_interior_tiles_not_rezeroed(self, rng):
        # (cheap behavioural check: conversion output is correct even when
        # the destination held garbage)
        a = rng.standard_normal((64, 64))
        m = empty_for(64, 64)
        m.buf[:] = 123.0
        dense_to_morton(a, m)
        assert np.array_equal(morton_to_dense(m), a)


class TestValidation:
    def test_shape_mismatch_rejected(self, rng):
        a = rng.standard_normal((10, 10))
        m = empty_for(11, 10)
        with pytest.raises(ValueError):
            dense_to_morton(a, m)

    def test_transpose_shape_checked(self, rng):
        a = rng.standard_normal((10, 12))
        m = empty_for(10, 12)
        with pytest.raises(ValueError):
            dense_to_morton(a, m, transpose=True)

    def test_non_2d_rejected(self):
        m = empty_for(4, 4)
        with pytest.raises(ValueError):
            dense_to_morton(np.zeros(16), m)

    def test_morton_to_dense_out_shape_checked(self, rng):
        a = rng.standard_normal((10, 10))
        m = empty_for(10, 10)
        dense_to_morton(a, m)
        with pytest.raises(ValueError):
            morton_to_dense(m, out=np.empty((9, 10)))


def gathered(m: MortonMatrix) -> np.ndarray:
    """``m``'s logical elements gathered through :func:`element_offsets`."""
    ii = np.arange(m.rows)[:, None]
    jj = np.arange(m.cols)[None, :]
    return m.buf[element_offsets(ii, jj, m.tile_r, m.tile_c, m.depth)]


def blocks_for(m: MortonMatrix):
    return _blocks(m.rows, m.cols, m.tile_r, m.tile_c, m.depth)


class TestConversionTable:
    """The cached per-geometry block table must place every element where
    :func:`element_offsets` says it lives."""

    @pytest.mark.parametrize("shape", SHAPES)
    def test_roundtrip_matches_loop(self, rng, shape):
        # Block copies agree with an element_offsets gather both ways.
        a = rng.standard_normal(shape)
        m = empty_for(*shape)
        dense_to_morton(a, m)
        assert np.array_equal(gathered(m), a)
        assert np.array_equal(morton_to_dense(m), a)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_source_contiguity_dispatch(self, rng, order):
        # C- and F-order sources convert through the same block views.
        a = np.asarray(rng.standard_normal((65, 63)), order=order)
        m = empty_for(65, 63)
        dense_to_morton(a, m)
        assert np.array_equal(gathered(m), a)
        assert np.array_equal(morton_to_dense(m), a)

    def test_strided_source_fallback(self, rng):
        # A non-contiguous source splits into block views too.
        big = rng.standard_normal((130, 126))
        a = big[::2, ::2]  # non-contiguous view
        assert not (a.flags.c_contiguous or a.flags.f_contiguous)
        m = empty_for(65, 63)
        dense_to_morton(a, m)
        assert np.array_equal(morton_to_dense(m), a)

    def test_transpose_fusion(self, rng):
        a = rng.standard_normal((40, 70))
        m = empty_for(70, 40)
        dense_to_morton(a, m, transpose=True)
        assert np.array_equal(gathered(m), a.T)

    def test_pad_zeroed(self, rng):
        a = rng.standard_normal((150, 150))  # pads to 152
        m = empty_for(150, 150)
        m.buf[:] = np.nan
        dense_to_morton(a, m)
        assert not np.any(np.isnan(m.buf))
        assert m.pad_is_zero()

    def test_zero_pad_false_skips_rezero(self, rng):
        a = rng.standard_normal((150, 150))
        m = empty_for(150, 150)
        dense_to_morton(a, m)  # establishes a zero pad
        m.buf[-1] = 7.0  # the last tile is pure pad: must stay untouched
        dense_to_morton(a * 2, m, zero_pad=False)
        assert m.buf[-1] == 7.0
        m.buf[-1] = 0.0
        assert m.pad_is_zero()
        assert np.array_equal(morton_to_dense(m), a * 2)

    def test_geometry_mismatch_rejected(self, rng):
        a = rng.standard_normal((64, 64))
        m = empty_for(63, 64)
        with pytest.raises(ValueError):
            dense_to_morton(a, m)
        dense_to_morton(a[:63], m)
        with pytest.raises(ValueError):
            morton_to_dense(m, out=np.empty((64, 64)))

    def test_morton_to_dense_out_orders(self, rng):
        a = rng.standard_normal((65, 63))
        m = empty_for(65, 63)
        dense_to_morton(a, m)
        for order in ("C", "F"):
            out = np.empty((65, 63), order=order)
            assert np.array_equal(morton_to_dense(m, out=out), a)
        base = np.zeros((130, 63))
        strided = base[::2]
        assert morton_to_dense(m, out=strided) is strided
        assert np.array_equal(base[::2], a)  # written through the view
        assert not base[1::2].any()

    def test_shared_cache_returns_same_table(self):
        t1 = _blocks(64, 64, 16, 16, 2)
        t2 = _blocks(64, 64, 16, 16, 2)
        assert t1 is t2
        assert len(t1) == 1  # a whole aligned matrix is one block

    def test_tables_are_immutable(self):
        # The cached block list is shared, so it must not be mutable.
        tab = _blocks(65, 63, 17, 16, 2)
        with pytest.raises(TypeError):
            tab[0] = tab[1]
        with pytest.raises(AttributeError):
            tab[0].span = slice(0, 1)

    def test_deep_blocks_fit_numpy_dimension_limit(self):
        # A level-k block view has 2k + 2 axes (2k + 3 stacked); numpy
        # 1.x allows 32, so a whole depth-16 matrix splits into its
        # sixteen level-14 blocks.
        tab = _blocks(1 << 16, 1 << 16, 1, 1, 16)
        assert len(tab) == 16
        assert all(len(b.shape) + 1 <= 32 for b in tab)

    @pytest.mark.parametrize("n,blocks", [(96, 1), (1024, 1), (513, 79),
                                          (769, 79), (900, 79)])
    def test_block_counts(self, n, blocks):
        m = empty_for(n, n)
        assert len(blocks_for(m)) == blocks


class TestMortonToDenseOut:
    def test_writes_into_supplied_array(self, rng):
        a = rng.standard_normal((33, 33))
        m = empty_for(33, 33)
        dense_to_morton(a, m)
        out = np.zeros((33, 33), order="F")
        result = morton_to_dense(m, out=out)
        assert result is out
        assert np.array_equal(out, a)

    def test_default_output_fortran_order(self, rng):
        a = rng.standard_normal((20, 30))
        m = empty_for(20, 30)
        dense_to_morton(a, m)
        assert morton_to_dense(m).flags.f_contiguous

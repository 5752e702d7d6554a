"""Unit tests for column-major <-> Morton conversion."""

import numpy as np
import pytest

from repro.layout.convert import (
    ConversionTable,
    conversion_table,
    dense_to_morton,
    morton_to_dense,
)
from repro.layout.matrix import MortonMatrix
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


def table_for(m: MortonMatrix) -> ConversionTable:
    return ConversionTable(m.rows, m.cols, m.tile_r, m.tile_c, m.depth)


class TestConversionTable:
    """The precomputed-index path must agree exactly with the tile loop."""

    @pytest.mark.parametrize("shape", SHAPES)
    def test_roundtrip_matches_loop(self, rng, shape):
        a = rng.standard_normal(shape)
        loop = empty_for(*shape)
        indexed = empty_for(*shape)
        dense_to_morton(a, loop)
        dense_to_morton(a, indexed, table=table_for(indexed))
        assert np.array_equal(indexed.buf, loop.buf)
        assert np.array_equal(
            morton_to_dense(indexed, table=table_for(indexed)), a
        )

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_source_contiguity_dispatch(self, rng, order):
        a = np.asarray(rng.standard_normal((65, 63)), order=order)
        m = empty_for(65, 63)
        dense_to_morton(a, m, table=table_for(m))
        assert np.array_equal(morton_to_dense(m), a)

    def test_strided_source_fallback(self, rng):
        big = rng.standard_normal((130, 126))
        a = big[::2, ::2]  # non-contiguous view
        assert not (a.flags.c_contiguous or a.flags.f_contiguous)
        m = empty_for(65, 63)
        dense_to_morton(a, m, table=table_for(m))
        assert np.array_equal(morton_to_dense(m), a)

    def test_transpose_fusion(self, rng):
        a = rng.standard_normal((40, 70))
        m = empty_for(70, 40)
        dense_to_morton(a, m, transpose=True, table=table_for(m))
        assert np.array_equal(morton_to_dense(m), a.T)

    def test_pad_zeroed(self, rng):
        a = rng.standard_normal((150, 150))  # pads to 152
        m = empty_for(150, 150)
        m.buf[:] = np.nan
        dense_to_morton(a, m, table=table_for(m))
        assert not np.any(np.isnan(m.buf))
        assert m.pad_is_zero()

    def test_zero_pad_false_skips_rezero(self, rng):
        a = rng.standard_normal((150, 150))
        m = empty_for(150, 150)
        dense_to_morton(a, m)  # establishes a zero pad
        dense_to_morton(a * 2, m, zero_pad=False, table=table_for(m))
        assert m.pad_is_zero()
        assert np.array_equal(morton_to_dense(m), a * 2)

    def test_geometry_mismatch_rejected(self, rng):
        a = rng.standard_normal((64, 64))
        m = empty_for(64, 64)
        wrong = ConversionTable(63, 64, m.tile_r, m.tile_c, m.depth)
        with pytest.raises(ValueError):
            dense_to_morton(a, m, table=wrong)
        dense_to_morton(a, m)
        with pytest.raises(ValueError):
            morton_to_dense(m, table=wrong)

    def test_morton_to_dense_out_orders(self, rng):
        a = rng.standard_normal((65, 63))
        m = empty_for(65, 63)
        dense_to_morton(a, m)
        tab = table_for(m)
        for order in ("C", "F"):
            out = np.empty((65, 63), order=order)
            assert np.array_equal(morton_to_dense(m, out=out, table=tab), a)
        strided = np.empty((130, 63))[::2]
        assert np.array_equal(morton_to_dense(m, out=strided, table=tab), a)

    def test_shared_cache_returns_same_table(self):
        t1 = conversion_table(64, 64, 16, 16, 2)
        t2 = conversion_table(64, 64, 16, 16, 2)
        assert t1 is t2
        assert t1.nbytes > 0

    def test_tables_are_immutable(self):
        tab = conversion_table(64, 64, 16, 16, 2)
        with pytest.raises(ValueError):
            tab.offsets[0, 0] = 1
        with pytest.raises(ValueError):
            tab.flat_f[0] = 1


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

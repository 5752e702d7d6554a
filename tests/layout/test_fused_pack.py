"""Unit tests for the fused convert-and-add packing primitives.

The contract under test: :func:`pack_morton_quarter` scatters a Winograd
operand sum directly from the dense source, bit-identical to converting
both quadrants and running the flat ufunc over their buffer slots —
including the signed-zero behaviour of padded regions.
"""

import numpy as np
import pytest

from repro.layout.convert import (
    ConversionTable,
    dense_to_morton,
    dense_to_morton_quadrants,
    pack_morton_quarter,
)
from repro.layout.matrix import MortonMatrix

# (rows, cols, tile_r, tile_c, depth) geometries: exact fits, padded
# remainders in one or both axes, and non-square tiles.
GEOMETRIES = [
    (16, 16, 4, 4, 2),
    (13, 11, 4, 3, 2),
    (24, 24, 3, 3, 3),
    (9, 16, 3, 4, 2),
    (17, 17, 5, 5, 2),
]


def _mm(rows, cols, tile_r, tile_c, depth, dtype=np.float64):
    n = (tile_r << depth) * (tile_c << depth)
    return MortonMatrix(
        buf=np.zeros(n, dtype=dtype), rows=rows, cols=cols,
        tile_r=tile_r, tile_c=tile_c, depth=depth,
    )


def _bits(x):
    return np.asarray(x).view(np.int64).tobytes()


def _dense(rng, rows, cols):
    a = rng.standard_normal((rows, cols))
    # Signed zeros must survive the fused remainder algebra exactly.
    a[a < -2.2] = -0.0
    a[a > 2.2] = 0.0
    return a


class TestQuadOffsets:
    @pytest.mark.parametrize("geom", GEOMETRIES)
    def test_matches_quadrant_relative_offsets(self, geom):
        rows, cols, tr, tc, depth = geom
        table = ConversionTable(rows, cols, tr, tc, depth)
        quad = table.quad_offsets
        h2 = (tr << depth) >> 1
        w2 = (tc << depth) >> 1
        assert quad.shape == (h2, w2)
        quarter = table.padded_size // 4
        for qr in (0, 1):
            for qc in (0, 1):
                z = (qr << 1) | qc
                h = min(max(rows - qr * h2, 0), h2)
                w = min(max(cols - qc * w2, 0), w2)
                if not (h and w):
                    continue
                full = table.offsets[qr * h2 : qr * h2 + h,
                                     qc * w2 : qc * w2 + w]
                assert np.array_equal(full - z * quarter, quad[:h, :w])

    def test_depth_zero_rejected(self):
        table = ConversionTable(4, 4, 4, 4, 0)
        with pytest.raises(ValueError):
            table.quad_offsets

    def test_cached_and_counted(self):
        table = ConversionTable(16, 16, 4, 4, 2)
        before = table.nbytes
        quad = table.quad_offsets
        assert table.quad_offsets is quad  # lazy, built once
        assert table.nbytes == before + quad.nbytes
        assert not quad.flags.writeable


class TestDenseToMortonQuadrants:
    @pytest.mark.parametrize("geom", GEOMETRIES)
    @pytest.mark.parametrize("transpose", [False, True])
    def test_converted_quadrants_bit_identical(self, rng, geom, transpose):
        rows, cols, tr, tc, depth = geom
        src = _dense(rng, cols, rows) if transpose else _dense(rng, rows, cols)
        table = ConversionTable(rows, cols, tr, tc, depth)
        ref = _mm(rows, cols, tr, tc, depth)
        dense_to_morton(src, ref, transpose=transpose)
        out = _mm(rows, cols, tr, tc, depth)
        quads = ((0, 0), (0, 1), (1, 1))
        dense_to_morton_quadrants(
            src, out, quads, transpose=transpose, table=table
        )
        quarter = out.size // 4
        for qr, qc in quads:
            z = (qr << 1) | qc
            sl = slice(z * quarter, (z + 1) * quarter)
            assert _bits(out.buf[sl]) == _bits(ref.buf[sl]), (qr, qc)

    def test_requires_table(self):
        out = _mm(16, 16, 4, 4, 2)
        with pytest.raises(ValueError, match="table"):
            dense_to_morton_quadrants(np.zeros((16, 16)), out, ((0, 0),))

    def test_rejects_mismatched_table(self):
        out = _mm(16, 16, 4, 4, 2)
        table = ConversionTable(13, 11, 4, 3, 2)
        with pytest.raises(ValueError):
            dense_to_morton_quadrants(
                np.zeros((16, 16)), out, ((0, 0),), table=table
            )


class TestPackMortonQuarter:
    @pytest.mark.parametrize("geom", GEOMETRIES)
    @pytest.mark.parametrize("transpose", [False, True])
    @pytest.mark.parametrize("op,q0,q1", [
        ("+", (1, 0), (1, 1)),  # S1 = A21 + A22
        ("-", (0, 0), (1, 0)),  # S3 = A11 - A21
        ("-", (0, 1), (0, 0)),  # T1 = B12 - B11
        ("-", (1, 1), (0, 1)),  # T3 = B22 - B12
    ])
    def test_bit_identical_to_two_pass(self, rng, geom, transpose, op, q0, q1):
        rows, cols, tr, tc, depth = geom
        src = _dense(rng, cols, rows) if transpose else _dense(rng, rows, cols)
        table = ConversionTable(rows, cols, tr, tc, depth)
        # Two-pass reference: full conversion, then the flat ufunc over
        # the two quadrants' buffer slots (what ops.add/ops.sub do).
        full = _mm(rows, cols, tr, tc, depth)
        dense_to_morton(src, full, transpose=transpose)
        quarter = full.size // 4

        def slot(q):
            z = (q[0] << 1) | q[1]
            return full.buf[z * quarter : (z + 1) * quarter]

        ufunc = np.add if op == "+" else np.subtract
        ref = ufunc(slot(q0), slot(q1))
        dst = np.full(quarter, np.nan)  # poison: must be fully rewritten
        pack_morton_quarter(dst, src, op, q0, q1, table, transpose=transpose)
        assert _bits(dst) == _bits(ref)

    def test_signed_zero_pad_rows(self):
        # 5x4 over 4x4 tiles, depth 1: the bottom quadrants have one
        # logical row against three pad rows; -0.0 inputs exercise the
        # literal x - 0.0 / 0.0 - x remainder algebra.
        rows, cols, tr, tc, depth = 5, 4, 4, 4, 1
        a = np.full((rows, cols), -0.0)
        table = ConversionTable(rows, cols, tr, tc, depth)
        full = _mm(rows, cols, tr, tc, depth)
        dense_to_morton(a, full)
        quarter = full.size // 4
        ref = np.subtract(
            full.buf[0:quarter], full.buf[2 * quarter : 3 * quarter]
        )
        dst = np.empty(quarter)
        pack_morton_quarter(dst, a, "-", (0, 0), (1, 0), table)
        assert _bits(dst) == _bits(ref)

    def test_rejects_wrong_shape(self):
        table = ConversionTable(16, 16, 4, 4, 2)
        dst = np.empty(table.padded_size // 4)
        with pytest.raises(ValueError):
            pack_morton_quarter(dst, np.zeros((8, 8)), "+", (1, 0), (1, 1),
                                table)

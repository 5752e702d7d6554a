"""Quadrant-level properties of the dense <-> Morton conversion.

Fused convert-and-add packing is gone: the recursion now forms the top
level's S1/S3/T1/T3 sums with flat ufuncs over the converted quadrants'
buffer slots.  What those sums read is therefore fixed here: each
quarter of a converted buffer is, bit for bit, the depth-``d - 1``
Morton form of its dense quadrant (offsets relative to the quarter's
start, pads zero, signed zeros kept), and the conversion's cached block
list covers each logical element exactly once.
"""

import numpy as np
import pytest

from repro.layout.convert import _blocks, dense_to_morton, morton_to_dense
from repro.layout.matrix import MortonMatrix
from repro.layout.morton import element_offsets

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
    # Signed zeros must survive the conversion exactly.
    a[a < -2.2] = -0.0
    a[a > 2.2] = 0.0
    return a


def _offsets(rows, cols, tile_r, tile_c, depth):
    return element_offsets(np.arange(rows)[:, None], np.arange(cols)[None, :],
                           tile_r, tile_c, depth)


def _quadrants(rows, cols, tile_r, tile_c, depth):
    """``(z, row slice, col slice)`` of each quadrant's logical part."""
    h2, w2 = tile_r << (depth - 1), tile_c << (depth - 1)
    for qr in (0, 1):
        for qc in (0, 1):
            h = min(max(rows - qr * h2, 0), h2)
            w = min(max(cols - qc * w2, 0), w2)
            yield ((qr << 1) | qc, slice(qr * h2, qr * h2 + h),
                   slice(qc * w2, qc * w2 + w))


class TestQuadOffsets:
    """Quadrant-relative Morton offsets, and the cached block list."""

    @pytest.mark.parametrize("geom", GEOMETRIES)
    def test_matches_quadrant_relative_offsets(self, geom):
        rows, cols, tr, tc, depth = geom
        full = _offsets(rows, cols, tr, tc, depth)
        quarter = (tr << depth) * (tc << depth) // 4
        for z, rs, cs in _quadrants(rows, cols, tr, tc, depth):
            h, w = rs.stop - rs.start, cs.stop - cs.start
            if not (h and w):
                continue
            quad = _offsets(h, w, tr, tc, depth - 1)
            assert np.array_equal(full[rs, cs] - z * quarter, quad), z

    def test_cached_and_counted(self):
        for geom in GEOMETRIES:
            blocks = _blocks(*geom)
            assert _blocks(*geom) is blocks  # built once per geometry
            # Slices and shape tuples only: no per-element index arrays.
            assert not any(isinstance(v, np.ndarray) for b in blocks for v in b)
            rows, cols = geom[:2]
            counts = [(b.rows.stop - b.rows.start) * (b.cols.stop - b.cols.start)
                      for b in blocks]
            assert sum(counts) == rows * cols  # every element copied once
            starts = [b.span.start for b in blocks]
            assert starts == sorted(starts)  # listed in buffer order
            assert all(b.span.stop <= n.span.start
                       for b, n in zip(blocks, blocks[1:]))


class TestDenseToMortonQuadrants:
    """Each quarter of a converted buffer is its dense quadrant's Morton
    form one level down."""

    @pytest.mark.parametrize("geom", GEOMETRIES)
    @pytest.mark.parametrize("transpose", [False, True])
    def test_converted_quadrants_bit_identical(self, rng, geom, transpose):
        rows, cols, tr, tc, depth = geom
        src = _dense(rng, cols, rows) if transpose else _dense(rng, rows, cols)
        full = _mm(rows, cols, tr, tc, depth)
        dense_to_morton(src, full, transpose=transpose)
        quarter = full.size // 4
        for z, rs, cs in _quadrants(rows, cols, tr, tc, depth):
            h, w = rs.stop - rs.start, cs.stop - cs.start
            slot = full.buf[z * quarter : (z + 1) * quarter]
            if not (h and w):
                assert not slot.any(), z  # a quadrant wholly in the pad
                continue
            part = src[cs, rs] if transpose else src[rs, cs]
            quad = _mm(h, w, tr, tc, depth - 1)
            dense_to_morton(part, quad, transpose=transpose)
            assert _bits(slot) == _bits(quad.buf), z


class TestPackMortonQuarter:
    """Signed zeros, zero pads and shape checks of a block-copy
    conversion."""

    def test_signed_zero_pad_rows(self):
        # 5x4 over 4x4 tiles, depth 1: the bottom quadrants hold one
        # logical row over three pad rows, the operands of S3 = A11 - A21.
        # Logical -0.0 must keep its sign bit and every pad must be +0.0,
        # even over a poisoned buffer.
        rows, cols, tr, tc, depth = 5, 4, 4, 4, 1
        a = np.full((rows, cols), -0.0)
        full = _mm(rows, cols, tr, tc, depth)
        full.buf[:] = np.nan
        dense_to_morton(a, full)
        logical = np.zeros(full.size, dtype=bool)
        logical[_offsets(rows, cols, tr, tc, depth)] = True
        assert _bits(full.buf[logical]) == _bits(np.full(rows * cols, -0.0))
        pad = full.buf[~logical]
        assert _bits(pad) == _bits(np.zeros(pad.size))
        assert _bits(morton_to_dense(full)) == _bits(a)

    def test_rejects_wrong_shape(self):
        out = _mm(16, 16, 4, 4, 2)
        with pytest.raises(ValueError):
            dense_to_morton(np.zeros((8, 8)), out)
        with pytest.raises(ValueError):
            morton_to_dense(out, np.zeros((8, 8)))

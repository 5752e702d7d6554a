"""Bit-interleaving arithmetic for Morton (Z-order) indexing.

The paper lays out quadrants in the order NW, NE, SW, SE (Figure 1), i.e.
the *row* bit is the more significant bit of each interleaved pair.  For a
tile-grid coordinate ``(ti, tj)`` in a ``2^d x 2^d`` grid, the tile's rank in
the Morton sequence is::

    z(ti, tj) = ... r1 c1 r0 c0   (binary; r = row bits, c = column bits)

All functions are vectorised over numpy integer arrays and also accept
Python ints (returned as numpy scalars / ints).

The implementation uses the classic "magic numbers" bit-spreading technique,
which runs in O(log bits) numpy operations instead of a per-bit loop — this
is the vectorised idiom the address-trace generators rely on, where millions
of offsets are computed per call.
"""

from __future__ import annotations

import numpy as np

# Spread masks for 32-bit inputs producing 64-bit outputs.
_SPREAD_MASKS = (
    (16, 0x0000FFFF0000FFFF),
    (8, 0x00FF00FF00FF00FF),
    (4, 0x0F0F0F0F0F0F0F0F),
    (2, 0x3333333333333333),
    (1, 0x5555555555555555),
)

_MAX_COORD = (1 << 31) - 1


def spread_bits(x):
    """Spread the low 32 bits of ``x`` so bit ``k`` moves to bit ``2k``.

    ``spread_bits(0b111) == 0b010101``.  Accepts ints or numpy integer
    arrays; always computes in int64.
    """
    v = np.asarray(x, dtype=np.int64)
    if np.any(v < 0) or np.any(v > _MAX_COORD):
        raise ValueError("spread_bits requires coordinates in [0, 2^31)")
    for shift, mask in _SPREAD_MASKS:
        v = (v | (v << shift)) & mask
    if np.isscalar(x) or np.ndim(x) == 0:
        return int(v)
    return v


def compact_bits(z):
    """Inverse of :func:`spread_bits`: gather even-position bits of ``z``."""
    v = np.asarray(z, dtype=np.int64)
    v = v & 0x5555555555555555
    for shift, mask in reversed(_SPREAD_MASKS):
        v = (v | (v >> shift)) & _next_mask(mask, shift)
    if np.isscalar(z) or np.ndim(z) == 0:
        return int(v)
    return v


def _next_mask(mask: int, shift: int) -> int:
    # After undoing one spreading step the bits occupy runs twice as long.
    # Reconstruct the corresponding mask from the spreading tables.
    table = {
        1: 0x3333333333333333,
        2: 0x0F0F0F0F0F0F0F0F,
        4: 0x00FF00FF00FF00FF,
        8: 0x0000FFFF0000FFFF,
        16: 0x00000000FFFFFFFF,
    }
    return table[shift]


def interleave2(row, col):
    """Morton rank of grid coordinate ``(row, col)``, row bit significant.

    NW=(0,0) -> 0, NE=(0,1) -> 1, SW=(1,0) -> 2, SE=(1,1) -> 3, matching the
    quadrant order of the paper's Figure 1.
    """
    r = spread_bits(row)
    c = spread_bits(col)
    if isinstance(r, int) and isinstance(c, int):
        return (r << 1) | c
    return (np.asarray(r, dtype=np.int64) << 1) | np.asarray(c, dtype=np.int64)


def deinterleave2(z):
    """Inverse of :func:`interleave2`: return ``(row, col)``."""
    zz = np.asarray(z, dtype=np.int64)
    col = compact_bits(zz)
    row = compact_bits(zz >> 1)
    if np.isscalar(z) or np.ndim(z) == 0:
        return int(row), int(col)
    return row, col


def zorder_coords(depth: int):
    """Tile-grid coordinates of the ``4**depth`` tiles in Morton sequence.

    Returns ``(ti, tj)`` int64 arrays such that the ``k``-th tile visited in
    memory order sits at grid position ``(ti[k], tj[k])``.
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    z = np.arange(4**depth, dtype=np.int64)
    if depth == 0:
        return np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
    return deinterleave2(z)


def element_offsets(i, j, tile_r: int, tile_c: int, depth: int):
    """Morton-buffer offsets of elements ``(i, j)`` of the padded matrix.

    ``i``/``j`` may be ints or broadcastable numpy arrays of row/column
    indices into the *padded* matrix (``tile_r * 2**depth`` by
    ``tile_c * 2**depth``).  The offset combines the Morton rank of the tile
    with the column-major position inside the tile::

        off = (z(i // tile_r, j // tile_c) * tile_r*tile_c
               + (j % tile_c)*tile_r + (i % tile_r))
    """
    ii = np.asarray(i, dtype=np.int64)
    jj = np.asarray(j, dtype=np.int64)
    nrows = tile_r << depth
    ncols = tile_c << depth
    if np.any(ii < 0) or np.any(ii >= nrows) or np.any(jj < 0) or np.any(jj >= ncols):
        raise IndexError("element index out of padded-matrix bounds")
    ti, ri = np.divmod(ii, tile_r)
    tj, rj = np.divmod(jj, tile_c)
    z = interleave2(ti, tj)
    off = np.asarray(z, dtype=np.int64) * (tile_r * tile_c) + rj * tile_r + ri
    if np.isscalar(i) and np.isscalar(j):
        return int(off)
    return off

"""Tile-grid enumeration helpers shared by the pad check and trace generation.

The tile grid of a depth-``d`` Morton matrix is always square,
``2**d x 2**d`` (a GEMM unfolds every dimension to the same depth), so the
z-order enumeration depends only on the depth and is cached.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, NamedTuple

import numpy as np

from .morton import zorder_coords

__all__ = ["TileSpan", "zorder_table", "tile_spans", "iter_tiles"]


class TileSpan(NamedTuple):
    """One leaf tile's position in both coordinate systems."""

    z: int  #: rank in the Morton sequence (== tile index in the buffer)
    ti: int  #: tile-grid row
    tj: int  #: tile-grid column
    row0: int  #: first padded-matrix row covered
    col0: int  #: first padded-matrix column covered
    offset: int  #: start offset of the tile in the flat Morton buffer


@lru_cache(maxsize=32)
def zorder_table(depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Cached ``(ti, tj)`` arrays for the ``4**depth`` tiles in z-order."""
    ti, tj = zorder_coords(depth)
    ti.setflags(write=False)
    tj.setflags(write=False)
    return ti, tj


@lru_cache(maxsize=32)
def tile_spans(
    depth: int, tile_r: int, tile_c: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cached ``(row0, col0, offset)`` arrays for all tiles in z-order.

    The vectorised twin of :func:`iter_tiles`: one array triple instead of
    ``4**depth`` ``TileSpan`` objects.
    """
    ti, tj = zorder_table(depth)
    row0 = ti * tile_r
    col0 = tj * tile_c
    offset = np.arange(ti.shape[0], dtype=np.int64) * (tile_r * tile_c)
    for arr in (row0, col0, offset):
        arr.setflags(write=False)
    return row0, col0, offset


def iter_tiles(depth: int, tile_r: int, tile_c: int) -> Iterator[TileSpan]:
    """Iterate leaf tiles in Morton (memory) order."""
    ti, tj = zorder_table(depth)
    row0, col0, offset = tile_spans(depth, tile_r, tile_c)
    for z in range(ti.shape[0]):
        yield TileSpan(
            z=z,
            ti=int(ti[z]),
            tj=int(tj[z]),
            row0=int(row0[z]),
            col0=int(col0[z]),
            offset=int(offset[z]),
        )

"""Interface-level conversion between dense (column-major) and Morton order.

The paper converts the input matrices to Morton order at the top level and
the result back at the end (Section 3.5), measuring the cost at 5-15% of
total execution time (Figure 7).  Transposition — the BLAS ``op(X)``
parameter — is fused into the conversion so a single core routine suffices.

A conversion is a few strided block copies.  An aligned block of
``2^k x 2^k`` leaf tiles is one contiguous range of the Morton buffer;
read in C order as a ``(2,)*2k + (tile_c, tile_r)`` array, its axes are
the row and column bit of each level (row bit first, as in Figure 1),
then the column and row inside a column-major tile.  The dense block,
split along both axes into ``(2,)*k + (tile_r,)`` and
``(2,)*k + (tile_c,)`` and transposed into that order, indexes the same
elements — so one ``np.copyto`` between the two views converts the whole
block.  :func:`_blocks` covers the logical region with whole aligned
blocks plus single tiles clipped along a padded edge, once per geometry:
one block at 1024x1024 (tile 32, depth 5), 79 at 513x513 (tile 33,
depth 4).  Both views carry an optional leading stack axis, which the
batch forms use on a stacked :class:`MortonMatrix`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .matrix import MortonMatrix

__all__ = [
    "dense_to_morton",
    "morton_to_dense",
    "dense_to_morton_batch",
    "morton_to_dense_batch",
]

#: Deepest block level copied as one view pair.  A stacked block view has
#: ``2k + 3`` axes and numpy 1.x allows 32, so deeper aligned blocks are
#: split into their quadrants.
_MAX_LEVEL = 14


class _Block(NamedTuple):
    """One block copy: where it sits in both layouts, and how to view it."""

    span: slice  #: the block's range of the Morton buffer
    shape: tuple  #: that range as ``(2,)*2k + (tile_c, tile_r)``
    clip: tuple  #: index of a clipped edge tile's logical part, else ()
    rows: slice  #: the block's dense rows
    cols: slice  #: and columns
    split: tuple  #: the dense block as ``(2,)*k + (r,) + (2,)*k + (c,)``
    order: tuple  #: axes taking ``split`` to Morton order, per lead count


@lru_cache(maxsize=64)
def _blocks(rows: int, cols: int, tile_r: int, tile_c: int,
            depth: int) -> tuple[_Block, ...]:
    """The block copies covering one geometry's logical region.

    A quadtree node wholly inside the logical region is one block; a leaf
    tile straddling the edge is one block clipped to its logical part; a
    node wholly in the pad holds no block.  Blocks are listed in buffer
    order.
    """
    out: list[_Block] = []

    def visit(off: int, r0: int, c0: int, k: int) -> None:
        h = min(tile_r << k, rows - r0)
        w = min(tile_c << k, cols - c0)
        if h <= 0 or w <= 0:
            return
        whole = h == tile_r << k and w == tile_c << k
        if k == 0 or (whole and k <= _MAX_LEVEL):
            r, c = (tile_r, tile_c) if k else (h, w)
            order = [x for i in range(k) for x in (i, k + 1 + i)]
            order += [2 * k + 1, k]
            out.append(_Block(
                span=slice(off, off + ((tile_r * tile_c) << 2 * k)),
                shape=(2,) * (2 * k) + (tile_c, tile_r),
                clip=() if whole else (slice(0, w), slice(0, h)),
                rows=slice(r0, r0 + h),
                cols=slice(c0, c0 + w),
                split=(2,) * k + (r,) + (2,) * k + (c,),
                order=(tuple(order), (0, *(x + 1 for x in order))),
            ))
            return
        quarter = (tile_r * tile_c) << 2 * (k - 1)
        for z in range(4):
            visit(off + z * quarter, r0 + (z >> 1) * (tile_r << (k - 1)),
                  c0 + (z & 1) * (tile_c << (k - 1)), k - 1)

    visit(0, 0, 0, depth)
    return tuple(out)


def _morton_view(buf: np.ndarray, b: _Block) -> np.ndarray:
    """Block ``b`` of a Morton buffer (or ``(B, elems)`` stack) in C order."""
    m = buf[..., b.span].reshape(buf.shape[:-1] + b.shape)
    return m[(Ellipsis, *b.clip)] if b.clip else m


def _dense_view(dense: np.ndarray, b: _Block) -> np.ndarray:
    """Block ``b`` of a dense matrix (or stack), in Morton axis order.

    The view must alias ``dense`` — a copy would silently drop writes
    into it — and a split of strided axes always does; a violation
    raises.
    """
    lead = dense.shape[:-2]
    d = dense[..., b.rows, b.cols].reshape(lead + b.split)
    if not np.may_share_memory(d, dense):
        raise RuntimeError("dense block split is not a view")
    return d.transpose(b.order[len(lead)])


def _block_views(dense: np.ndarray, buf: np.ndarray, geometry):
    """``(dense view, Morton view)`` of every block of ``geometry``."""
    for b in _blocks(*geometry):
        yield _dense_view(dense, b), _morton_view(buf, b)


def _geometry(m) -> tuple[int, int, int, int, int]:
    return (m.rows, m.cols, m.tile_r, m.tile_c, m.depth)


def _op_source(a, dtype, shape, transpose: bool) -> np.ndarray:
    """``op(a)`` as an array of ``dtype``, checked against ``shape``."""
    a = np.asarray(a, dtype=dtype)
    if a.ndim != 2:
        raise ValueError(f"expected 2-D input, got ndim={a.ndim}")
    src = a.T if transpose else a
    if src.shape != shape:
        raise ValueError(f"op(a) shape {src.shape} != destination {shape}")
    return src


def dense_to_morton(
    a: np.ndarray, out: MortonMatrix, transpose: bool = False,
    zero_pad: bool = True,
) -> MortonMatrix:
    """Copy dense ``a`` (or its transpose) into Morton matrix ``out``.

    ``out.shape`` must equal the logical shape of ``op(a)``.  Returns
    ``out`` for chaining.  ``zero_pad=False`` skips re-zeroing the pad
    region — valid only when the caller guarantees it is already zero and
    has stayed zero since (the engine's pooled operand buffers maintain
    exactly this invariant, so repeated conversions touch only the logical
    elements).
    """
    out._single("dense_to_morton()")
    src = _op_source(a, out.buf.dtype, out.shape, transpose)
    if zero_pad and out.size != out.rows * out.cols:
        out.buf.fill(0.0)  # the block copies write logical elements only
    for d, m in _block_views(src, out.buf, _geometry(out)):
        np.copyto(m, d)
    return out


def morton_to_dense(
    m: MortonMatrix, out: np.ndarray | None = None, beta: float = 0.0,
) -> np.ndarray:
    """Copy Morton matrix ``m`` back to a dense array of its logical shape.

    A fresh destination is allocated in Fortran order (the layout the BLAS
    interface traffics in); pass ``out`` to write into an existing array
    of any strides.

    ``beta`` fuses the GEMM accumulate into the conversion: the result is
    ``out = m + beta * out``, formed block by block as ``out *= beta;
    out += m`` — each element is scaled then added, exactly as a
    whole-matrix two-pass would, but the destination is traversed in one
    sweep of blocks.  Requires ``out``.
    """
    m._single("morton_to_dense()")
    if out is None:
        if beta != 0.0:
            raise ValueError("beta != 0 requires an existing out array")
        out = np.empty((m.rows, m.cols), dtype=m.buf.dtype, order="F")
    elif out.shape != m.shape:
        raise ValueError(f"out shape {out.shape} != logical shape {m.shape}")
    for d, v in _block_views(out, m.buf, _geometry(m)):
        if beta != 0.0:
            d *= beta
            d += v
        else:
            np.copyto(d, v)
    return out


def dense_to_morton_batch(
    arrs, out: MortonMatrix, transpose: bool = False,
) -> MortonMatrix:
    """Convert ``len(arrs)`` same-geometry dense arrays into a Morton stack.

    Item ``i`` fills row ``i`` of the stacked ``out``.  Its rows must already
    have zeroed pads (the pooled batch stacks maintain this invariant: the
    batched recursion never writes operand stacks); only logical elements
    are written.  The stack's block views are built once per call, so
    each item costs one view and one copy per block.
    """
    n = len(arrs)
    if n > (out.batch or 0):
        raise ValueError(f"{n} items exceed the stack's {out.batch or 0} rows")
    stack = out.buf[:n]
    blocks = [(b, _morton_view(stack, b)) for b in _blocks(*_geometry(out))]
    for i in range(n):
        src = _op_source(arrs[i], out.buf.dtype, out.shape, transpose)
        for b, m in blocks:
            np.copyto(m[i], _dense_view(src, b))
    return out


def morton_to_dense_batch(m: MortonMatrix, n_items: int) -> list:
    """Convert the first ``n_items`` rows of a Morton stack back to dense.

    Returns one Fortran-order array per item (the BLAS interface layout):
    F-contiguous views of one freshly allocated block, filled by one
    stacked copy per conversion block and owned by the caller (nothing
    aliases the stack).
    """
    blk = np.empty((n_items, m.cols, m.rows), dtype=m.buf.dtype)
    for d, v in _block_views(blk.transpose(0, 2, 1), m.buf[:n_items],
                             _geometry(m)):
        np.copyto(d, v)
    return [blk[i].T for i in range(n_items)]

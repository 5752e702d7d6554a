"""Interface-level conversion between dense (column-major) and Morton order.

The paper converts the input matrices to Morton order at the top level and
the result back at the end (Section 3.5), measuring the cost at 5-15% of
total execution time (Figure 7).  Transposition — the BLAS ``op(X)``
parameter — is fused into the conversion so a single core routine suffices.

Two implementations coexist, selected per call site:

* The **tile loop** walks the ``4**depth`` leaf tiles in z-order and
  block-copies each as one 2-D slice assignment (zero-filling tiles that
  straddle the logical boundary).  No setup cost; per-tile Python overhead.
* The **index table** path (:class:`ConversionTable`) precomputes the
  Morton-buffer offset of every logical element once, after which a
  conversion is a handful of vectorised gather/scatter copies with no
  Python loop at all.  This is what a cached :class:`repro.engine`
  plan amortises: the O(n^2) int64 table is built at plan-compile time, so
  the warm path pays only the copies.  It wins when the tile count is
  large (depth >= ~4) and the operand is not far beyond cache; the engine
  calibrates both paths per plan and keeps the faster one.

A table can also drive a **parallel** conversion: its flat index arrays
split into contiguous chunks that gather/scatter independently on a
:class:`repro.core.scheduler.WorkerPool` (any object with ``run_all``).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..core.scheduler import stripe_ranges
from .matrix import BatchMortonMatrix, MortonMatrix
from .morton import element_offsets
from .tiles import iter_tiles

__all__ = [
    "dense_to_morton",
    "morton_to_dense",
    "dense_to_morton_batch",
    "morton_to_dense_batch",
    "dense_to_morton_quadrants",
    "pack_morton_quarter",
    "ConversionTable",
    "conversion_table",
    "calibration_key",
]

#: Fewest elements per chunk worth dispatching to a worker pool.
PARALLEL_CONVERT_MIN = 1 << 20


class ConversionTable:
    """Precomputed Morton offsets of every logical element of one geometry.

    ``offsets[i, j]`` is the flat Morton-buffer position of logical element
    ``(i, j)``; ``flat_c`` / ``flat_f`` are its row-major / column-major
    ravellings, paired with same-order ravellings of the dense side so a
    whole conversion becomes one ``take``/scatter.  Immutable and shareable
    across threads.
    """

    def __init__(self, rows: int, cols: int, tile_r: int, tile_c: int,
                 depth: int) -> None:
        self.rows, self.cols = rows, cols
        self.tile_r, self.tile_c, self.depth = tile_r, tile_c, depth
        ii = np.arange(rows, dtype=np.int64)[:, None]
        jj = np.arange(cols, dtype=np.int64)[None, :]
        offs = element_offsets(ii, jj, tile_r, tile_c, depth)
        offs.setflags(write=False)
        self.offsets = offs
        self.flat_c = offs.reshape(-1)  # row-major pairing (view)
        self.flat_f = np.ascontiguousarray(offs.T).reshape(-1)
        self.flat_f.setflags(write=False)
        self._quad: np.ndarray | None = None
        self._qpairs: dict = {}

    @property
    def padded_size(self) -> int:
        """Flat Morton-buffer length of this geometry (pads included)."""
        return (self.tile_r << self.depth) * (self.tile_c << self.depth)

    @property
    def quad_offsets(self) -> np.ndarray:
        """Morton offsets of one quadrant's *relative* element grid.

        A quadrant of a depth-``d`` Morton matrix is a contiguous quarter
        of the buffer holding the same recursive layout one level down, so
        the within-quadrant offset of relative element ``(i, j)`` is the
        depth ``d - 1`` Morton offset — identical for all four quadrants.
        One ``(padded_rows/2, padded_cols/2)`` table therefore serves
        every quadrant destination of the fused packing path.  Built
        lazily (only fused plans pay for it) and cached; requires
        ``depth >= 1``.
        """
        if self.depth < 1:
            raise ValueError("quad_offsets needs depth >= 1")
        quad = self._quad
        if quad is None:
            h2 = (self.tile_r << self.depth) >> 1
            w2 = (self.tile_c << self.depth) >> 1
            ii = np.arange(h2, dtype=np.int64)[:, None]
            jj = np.arange(w2, dtype=np.int64)[None, :]
            quad = element_offsets(ii, jj, self.tile_r, self.tile_c,
                                   self.depth - 1)
            quad.setflags(write=False)
            self._quad = quad
        return quad

    def quarter_pairs(self, quad, order: str):
        """Paired flat (Morton, source) indices of one quadrant's elements.

        ``buf[morton_idx] = flat_src[src_idx]`` scatters the logical
        elements of quadrant ``quad`` from a flattened dense source —
        ``src.reshape(-1)`` for ``order="C"``, ``src.T.reshape(-1)`` for
        ``order="F"`` — into their Morton positions.  Lets the fused
        packing path convert the one quadrant left over after its
        contiguous-half scatter with two 1-D fancy operations instead of
        a strided 2-D one.  Built lazily per ``(quad, order)`` and
        cached; empty arrays for a fully-padded quadrant.
        """
        key = (tuple(quad), order)
        pairs = self._qpairs.get(key)
        if pairs is None:
            qr, qc = quad
            h2 = (self.tile_r << self.depth) >> 1
            w2 = (self.tile_c << self.depth) >> 1
            r0, c0 = qr * h2, qc * w2
            h = min(max(self.rows - r0, 0), h2)
            w = min(max(self.cols - c0, 0), w2)
            offs = self.offsets[r0 : r0 + h, c0 : c0 + w]
            ii = np.arange(r0, r0 + h, dtype=np.int64)[:, None]
            jj = np.arange(c0, c0 + w, dtype=np.int64)[None, :]
            src_pos = ii * self.cols + jj if order == "C" \
                else jj * self.rows + ii
            if order == "F":
                offs, src_pos = offs.T, src_pos.T
            idx_m = np.ascontiguousarray(offs).reshape(-1)
            idx_s = np.ascontiguousarray(src_pos).reshape(-1)
            idx_m.setflags(write=False)
            idx_s.setflags(write=False)
            pairs = (idx_m, idx_s)
            self._qpairs[key] = pairs
        return pairs

    @property
    def nbytes(self) -> int:
        quad = self._quad
        return (
            self.offsets.nbytes
            + self.flat_f.nbytes
            + (0 if quad is None else quad.nbytes)
            + sum(m.nbytes + s.nbytes for m, s in self._qpairs.values())
        )

    def chunks(self, n: int) -> list[slice]:
        """Split the element range into ``n`` roughly equal slices."""
        total = self.rows * self.cols
        n = max(1, min(n, total))
        step = -(-total // n)
        return [slice(i, min(i + step, total)) for i in range(0, total, step)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ConversionTable({self.rows}x{self.cols}, tile "
            f"{self.tile_r}x{self.tile_c}, depth {self.depth}, "
            f"{self.nbytes >> 10} KiB)"
        )


@lru_cache(maxsize=8)
def conversion_table(rows: int, cols: int, tile_r: int, tile_c: int,
                     depth: int) -> ConversionTable:
    """Small shared cache of tables; engine plans hold their own references."""
    return ConversionTable(rows, cols, tile_r, tile_c, depth)


def calibration_key(rows: int, cols: int, tile_r: int, tile_c: int,
                    depth: int, dtype: str = "float64") -> str:
    """Stable identity of one conversion site's loop-vs-indexed question.

    The engine calibrates each plan site (loop path vs index-table path)
    by timing; the answer depends only on the conversion geometry and the
    element width, so this key lets the outcome persist across plans,
    evictions, sessions and processes (the plan store's ``calibrations``
    section).
    """
    return (
        f"{int(rows)}x{int(cols)}:t{int(tile_r)}x{int(tile_c)}:"
        f"d{int(depth)}:{dtype}"
    )


def _indexed_to_morton(src: np.ndarray, out: MortonMatrix,
                       table: ConversionTable, pool, workers: int) -> None:
    """Scatter ``src`` (logical orientation) into ``out`` via the table."""
    buf = out.buf
    if src.flags.f_contiguous:
        flat_idx, flat_src = table.flat_f, src.T.reshape(-1)
    elif src.flags.c_contiguous:
        flat_idx, flat_src = table.flat_c, src.reshape(-1)
    else:
        buf[table.offsets] = src  # exotic strides: 2-D fancy scatter
        return
    if pool is not None and flat_src.size >= workers * PARALLEL_CONVERT_MIN:
        def scatter(sl):
            return lambda: buf.__setitem__(flat_idx[sl], flat_src[sl])
        pool.run_all([scatter(sl) for sl in table.chunks(workers)],
                     name="dense_to_morton")
    else:
        buf[flat_idx] = flat_src


def dense_to_morton(
    a: np.ndarray, out: MortonMatrix, transpose: bool = False,
    zero_pad: bool = True, table: ConversionTable | None = None,
    pool=None, workers: int = 1,
) -> MortonMatrix:
    """Copy dense ``a`` (or its transpose) into Morton matrix ``out``.

    ``out.shape`` must equal the logical shape of ``op(a)``.  Returns
    ``out`` for chaining.  ``zero_pad=False`` skips re-zeroing the pad
    region — valid only when the caller guarantees it is already zero and
    has stayed zero since (the engine's pooled operand buffers maintain
    exactly this invariant, so repeated conversions touch only the logical
    elements).

    ``table`` switches to the precomputed-index path (it must describe
    ``out``'s geometry); with a ``pool`` (and ``workers`` > 1) large
    conversions additionally split across pool workers.
    """
    a = np.asarray(a, dtype=out.buf.dtype)
    if a.ndim != 2:
        raise ValueError(f"expected 2-D input, got ndim={a.ndim}")
    src = a.T if transpose else a
    if src.shape != out.shape:
        raise ValueError(f"op(a) shape {src.shape} != destination {out.shape}")

    if table is not None:
        if (table.rows, table.cols) != out.shape or (
            table.tile_r, table.tile_c, table.depth
        ) != (out.tile_r, out.tile_c, out.depth):
            raise ValueError(f"{table!r} does not describe destination {out!r}")
        if zero_pad and out.size != out.rows * out.cols:
            out.buf[:] = 0.0  # indexed writes touch only logical elements
        _indexed_to_morton(src, out, table, pool, workers)
        return out

    rows, cols = out.rows, out.cols
    tr, tc = out.tile_r, out.tile_c
    buf = out.buf
    tile_elems = tr * tc
    for t in iter_tiles(out.depth, tr, tc):
        r0, c0 = t.row0, t.col0
        dest = buf[t.offset : t.offset + tile_elems]
        r1 = min(r0 + tr, rows)
        c1 = min(c0 + tc, cols)
        if r1 <= r0 or c1 <= c0:
            # Tile entirely inside the pad.
            if zero_pad:
                dest[:] = 0.0
            continue
        tile2d = dest.reshape(tc, tr).T  # Fortran-order view of the tile
        if r1 - r0 == tr and c1 - c0 == tc:
            tile2d[:, :] = src[r0:r1, c0:c1]
        else:
            if zero_pad:
                dest[:] = 0.0
            tile2d[: r1 - r0, : c1 - c0] = src[r0:r1, c0:c1]
    return out


def morton_to_dense(
    m: MortonMatrix, out: np.ndarray | None = None,
    table: ConversionTable | None = None, pool=None, workers: int = 1,
    beta: float = 0.0,
) -> np.ndarray:
    """Copy Morton matrix ``m`` back to a dense array of its logical shape.

    A fresh destination is allocated in Fortran order (the layout the BLAS
    interface traffics in); pass ``out`` to write into an existing array.
    ``table``/``pool``/``workers`` behave as in :func:`dense_to_morton`.

    ``beta`` fuses the GEMM accumulate into the conversion: the result is
    ``out = m + beta * out`` — elementwise identical to the legacy
    ``out *= beta; out += dense(m)`` two-pass (each element is scaled then
    added independently), but the destination is traversed once instead of
    three times.  Requires ``out``; the pooled split is skipped so the
    scale/add pair stays a single-threaded, deterministic sweep.
    """
    if out is None:
        if beta != 0.0:
            raise ValueError("beta != 0 requires an existing out array")
        out = np.empty((m.rows, m.cols), dtype=m.buf.dtype, order="F")
    elif out.shape != m.shape:
        raise ValueError(f"out shape {out.shape} != logical shape {m.shape}")

    if table is not None:
        if (table.rows, table.cols) != m.shape or (
            table.tile_r, table.tile_c, table.depth
        ) != (m.tile_r, m.tile_c, m.depth):
            raise ValueError(f"{table!r} does not describe source {m!r}")
        buf = m.buf
        if out.flags.f_contiguous:
            flat_idx, flat_out = table.flat_f, out.T.reshape(-1)
        elif out.flags.c_contiguous:
            flat_idx, flat_out = table.flat_c, out.reshape(-1)
        else:
            if beta != 0.0:
                out *= beta
                out += buf[table.offsets]
            else:
                out[...] = buf[table.offsets]
            return out
        if beta != 0.0:
            flat_out *= beta
            flat_out += buf[flat_idx]
        elif pool is not None and (
            flat_out.size >= workers * PARALLEL_CONVERT_MIN
        ):
            def gather(sl):
                return lambda: np.take(buf, flat_idx[sl], out=flat_out[sl])
            pool.run_all([gather(sl) for sl in table.chunks(workers)],
                         name="morton_to_dense")
        else:
            np.take(buf, flat_idx, out=flat_out)
        return out

    tr, tc = m.tile_r, m.tile_c
    tile_elems = tr * tc
    for t in iter_tiles(m.depth, tr, tc):
        r0, c0 = t.row0, t.col0
        if r0 >= m.rows or c0 >= m.cols:
            continue
        r1 = min(r0 + tr, m.rows)
        c1 = min(c0 + tc, m.cols)
        tile2d = m.buf[t.offset : t.offset + tile_elems].reshape(tc, tr).T
        if beta != 0.0:
            out[r0:r1, c0:c1] *= beta
            out[r0:r1, c0:c1] += tile2d[: r1 - r0, : c1 - c0]
        else:
            out[r0:r1, c0:c1] = tile2d[: r1 - r0, : c1 - c0]
    return out


def dense_to_morton_batch(
    arrs, out: BatchMortonMatrix, transpose: bool = False,
    table: ConversionTable | None = None, pool=None, workers: int = 1,
) -> BatchMortonMatrix:
    """Convert ``len(arrs)`` same-geometry dense arrays into a Morton stack.

    One :class:`ConversionTable` (built once per plan) is broadcast over
    the batch axis: every item is one lean vectorised scatter through the
    shared index vector — no per-item table build, calibration, tile
    loop, or validation re-run.  ``out``'s rows must already have zeroed
    pads (the pooled batch buffers maintain this invariant: the batched
    recursion never writes operand stacks); indexed writes touch only
    logical elements.  With a ``pool``, the *batch axis* stripes across
    workers — each worker scatters a contiguous run of rows.  Without a
    table, falls back to the per-item tile loop.
    """
    n = len(arrs)
    if n > out.batch:
        raise ValueError(f"{n} items exceed batch capacity {out.batch}")

    if table is not None:
        dtype = out.buf.dtype
        shape = (out.rows, out.cols)

        def scatter_rows(lo: int, hi: int) -> None:
            for i in range(lo, hi):
                src = np.asarray(arrs[i], dtype=dtype)
                if transpose:
                    src = src.T
                if src.shape != shape:
                    raise ValueError(
                        f"op(a) shape {src.shape} != destination {shape}"
                    )
                row = out.buf[i]
                if src.flags.f_contiguous:
                    row[table.flat_f] = src.T.reshape(-1)
                elif src.flags.c_contiguous:
                    row[table.flat_c] = src.reshape(-1)
                else:
                    row[table.offsets] = src

        if pool is not None and workers > 1 and n > 1 and (
            n * out.rows * out.cols >= PARALLEL_CONVERT_MIN
        ):
            def job(lo, hi):
                return lambda: scatter_rows(lo, hi)
            pool.run_all(
                [job(lo, hi) for lo, hi in stripe_ranges(n, workers)],
                name="dense_to_morton_batch",
            )
        else:
            scatter_rows(0, n)
        return out

    def convert_range(lo: int, hi: int) -> None:
        for i in range(lo, hi):
            dense_to_morton(arrs[i], out.item(i), transpose=transpose)

    if pool is not None and workers > 1 and n > 1 and (
        n * out.rows * out.cols >= PARALLEL_CONVERT_MIN
    ):
        def job(lo, hi):
            return lambda: convert_range(lo, hi)
        pool.run_all(
            [job(lo, hi) for lo, hi in stripe_ranges(n, workers)],
            name="dense_to_morton_batch",
        )
    else:
        convert_range(0, n)
    return out


def morton_to_dense_batch(
    m: BatchMortonMatrix, n_items: int,
    table: ConversionTable | None = None, pool=None, workers: int = 1,
) -> list:
    """Convert the first ``n_items`` rows of a Morton stack back to dense.

    Returns Fortran-order arrays (the BLAS interface layout), one per
    item.  With a table, the whole batch is gathered in **one** 2-D
    advanced-indexing call — ``buf[:n, idx]`` — which runs a single C
    loop over the stack (~6x faster than per-item ``take`` calls); the
    returned arrays are F-contiguous per-item views of that one freshly
    allocated block, owned by the caller (nothing aliases the stack).
    Striping splits the gather over batch-row ranges; the tile-loop
    fallback mirrors :func:`dense_to_morton_batch`.
    """
    if table is not None:
        idx = table.flat_f
        sub = m.buf[:n_items]
        if pool is not None and workers > 1 and n_items > 1 and (
            n_items * m.rows * m.cols >= PARALLEL_CONVERT_MIN
        ):
            blk = np.empty((n_items, m.rows * m.cols), dtype=m.buf.dtype)

            def job(lo, hi):
                return lambda: blk.__setitem__(
                    slice(lo, hi), sub[lo:hi][:, idx]
                )
            pool.run_all(
                [job(lo, hi) for lo, hi in stripe_ranges(n_items, workers)],
                name="morton_to_dense_batch",
            )
        else:
            blk = sub[:, idx]
        return [
            blk[i].reshape(m.cols, m.rows).T for i in range(n_items)
        ]

    outs = [
        np.empty((m.rows, m.cols), dtype=m.buf.dtype, order="F")
        for _ in range(n_items)
    ]

    def convert_range(lo: int, hi: int) -> None:
        for i in range(lo, hi):
            morton_to_dense(m.item(i), out=outs[i])

    if pool is not None and workers > 1 and n_items > 1 and (
        n_items * m.rows * m.cols >= PARALLEL_CONVERT_MIN
    ):
        def job(lo, hi):
            return lambda: convert_range(lo, hi)
        pool.run_all(
            [job(lo, hi) for lo, hi in stripe_ranges(n_items, workers)],
            name="morton_to_dense_batch",
        )
    else:
        convert_range(0, n_items)
    return outs


# ------------------------------------------------------- fused packing

_ALL_QUADS = {(0, 0), (0, 1), (1, 0), (1, 1)}


def _quad_extent(table: ConversionTable, qr: int, qc: int):
    """Padded half-dims and the quadrant's logical extent (may be 0)."""
    h2 = (table.tile_r << table.depth) >> 1
    w2 = (table.tile_c << table.depth) >> 1
    h = min(max(table.rows - qr * h2, 0), h2)
    w = min(max(table.cols - qc * w2, 0), w2)
    return h2, w2, h, w


def _check_fused_geometry(a: np.ndarray, out_shape, table: ConversionTable,
                          geo, transpose: bool) -> np.ndarray:
    if a.ndim != 2:
        raise ValueError(f"expected 2-D input, got ndim={a.ndim}")
    src = a.T if transpose else a
    if src.shape != out_shape:
        raise ValueError(f"op(a) shape {src.shape} != destination {out_shape}")
    if (table.rows, table.cols) != out_shape or (
        table.tile_r, table.tile_c, table.depth
    ) != geo:
        raise ValueError(f"{table!r} does not describe the destination")
    if table.depth < 1:
        raise ValueError("fused packing needs depth >= 1")
    return src


def dense_to_morton_quadrants(
    a: np.ndarray, out: MortonMatrix, quads, transpose: bool = False,
    zero_pad: bool = True, table: ConversionTable | None = None,
) -> MortonMatrix:
    """Convert only the listed quadrants of ``op(a)`` into ``out``.

    The fused packing path's partner to :func:`dense_to_morton`: the
    quadrants an execution actually consumes as plain Morton operands are
    scattered here, while the remaining quadrant's buffer slot receives a
    packed operand sum (:func:`pack_morton_quarter`) instead of a copy —
    the reason the fused path converts one quarter less per operand.
    ``quads`` is an iterable of ``(qr, qc)`` quadrant coordinates; each
    converted quadrant's buffer slot is written exactly as
    :func:`dense_to_morton` would have written it (same elements, same
    zero pads — a pure copy either way, so results are bit-identical).
    Requires a ``table`` describing ``out``.
    """
    a = np.asarray(a, dtype=out.buf.dtype)
    if table is None:
        raise ValueError("dense_to_morton_quadrants requires a table")
    geo = (out.tile_r, out.tile_c, out.depth)
    src = _check_fused_geometry(a, out.shape, table, geo, transpose)
    rows, cols = out.rows, out.cols
    quarter = out.size // 4
    buf = out.buf
    quads = tuple(quads)
    if zero_pad:
        for qr, qc in quads:
            h2, w2, h, w = _quad_extent(table, qr, qc)
            if h < h2 or w < w2:
                z = (qr << 1) | qc
                buf[z * quarter : (z + 1) * quarter] = 0.0

    skip = _ALL_QUADS - set(quads)
    if len(quads) == 3 and len(skip) == 1 and (
        src.flags.c_contiguous or src.flags.f_contiguous
    ):
        # Fast path for the fused-packing shape (all quadrants but one):
        # the included region is one contiguous half of the source — the
        # row half (C order) or column half (F order) not containing the
        # skipped quadrant — plus one quadrant.  The half scatters
        # through a contiguous slice of the full flat pairing at the
        # same per-element cost as a whole-matrix indexed conversion;
        # the leftover quadrant uses its cached index pairs.
        (sr, sc), = skip
        if src.flags.c_contiguous:
            flat_idx, flat_src = table.flat_c, src.reshape(-1)
            hh = min((table.tile_r << table.depth) >> 1, rows)
            sl = (slice(0, hh * cols) if sr == 1
                  else slice(hh * cols, rows * cols))
            rem = (sr, 1 - sc)
        else:
            flat_idx, flat_src = table.flat_f, src.T.reshape(-1)
            ww = min((table.tile_c << table.depth) >> 1, cols)
            sl = (slice(0, ww * rows) if sc == 1
                  else slice(ww * rows, rows * cols))
            rem = (1 - sr, sc)
        buf[flat_idx[sl]] = flat_src[sl]
        order = "C" if src.flags.c_contiguous else "F"
        idx_m, idx_s = table.quarter_pairs(rem, order)
        if idx_m.size:
            buf[idx_m] = flat_src[idx_s]
        return out

    for qr, qc in quads:
        h2, w2, h, w = _quad_extent(table, qr, qc)
        if h and w:
            r0, c0 = qr * h2, qc * w2
            buf[table.offsets[r0 : r0 + h, c0 : c0 + w]] = (
                src[r0 : r0 + h, c0 : c0 + w]
            )
    return out


def pack_morton_quarter(
    dst: np.ndarray, a: np.ndarray, op: str, quad0, quad1,
    table: ConversionTable, transpose: bool = False,
) -> None:
    """Fused convert-and-add: scatter ``Q0 <op> Q1`` into a quarter buffer.

    ``Q0``/``Q1`` are quadrants (``(qr, qc)`` coordinates) of the *dense*
    operand ``op(a)``; ``dst`` is a flat Morton quarter buffer (an operand
    quadrant slot or one level of recursion scratch).  One read of each
    source quadrant produces the Winograd operand sum directly in Morton
    order — the separate full-size add pass over already-converted
    quadrants disappears.

    Bit-identity with the two-pass path is maintained region by region:
    where both quadrants have logical elements the scatter stores
    ``np.add``/``np.subtract`` of the same two values the two-pass ufunc
    saw; where exactly one side is pad the literal ``x + 0.0`` /
    ``0.0 - x`` is computed (matching IEEE-754 signed-zero behaviour of
    adding a zeroed pad); where both are pad the destination holds the
    ``+0.0`` that ``0 +/- 0`` produces.
    """
    a = np.asarray(a, dtype=dst.dtype)
    geo = (table.tile_r, table.tile_c, table.depth)
    src = _check_fused_geometry(a, (table.rows, table.cols), table, geo,
                                transpose)
    ufunc = np.add if op == "+" else np.subtract
    quad = table.quad_offsets
    (qr0, qc0), (qr1, qc1) = quad0, quad1
    h2, w2, h0, w0 = _quad_extent(table, qr0, qc0)
    _, _, h1, w1 = _quad_extent(table, qr1, qc1)
    s0 = src[qr0 * h2 : qr0 * h2 + h0, qc0 * w2 : qc0 * w2 + w0]
    s1 = src[qr1 * h2 : qr1 * h2 + h1, qc1 * w2 : qc1 * w2 + w1]
    hc, wc = min(h0, h1), min(w0, w1)
    dst[:] = 0.0
    if hc and wc:
        dst[quad[:hc, :wc]] = ufunc(s0[:hc, :wc], s1[:hc, :wc])

    # The two quadrants' logical regions share the (hc, wc) core; each
    # remainder (disjoint from the other's) pairs with the other side's
    # zeroed pad.
    def remainder(s, h, w, left):
        if h and w > wc:
            part = s[:, wc:w]
            dst[quad[:h, wc:w]] = (
                ufunc(part, 0.0) if left else ufunc(0.0, part)
            )
        if wc and h > hc:
            part = s[hc:h, :wc]
            dst[quad[hc:h, :wc]] = (
                ufunc(part, 0.0) if left else ufunc(0.0, part)
            )

    remainder(s0, h0, w0, True)
    remainder(s1, h1, w1, False)

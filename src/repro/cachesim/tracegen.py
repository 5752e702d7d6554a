"""Instrumented twins of the kernels and full algorithms (replaces ATOM).

Each generator emits the element-level load/store stream of a code path in
program order, vectorised with numpy (an address chunk per loop nest, not
per access).  The crucial generator is :class:`TraceOps`, a drop-in
backend for the *actual* Winograd/Strassen recursion of
:mod:`repro.core.winograd` — the simulated trace therefore belongs to
exactly the code being benchmarked, taking its addresses from the real
numpy buffers (so quadrant adjacency, workspace reuse, and padding all
appear in the trace as they do in memory).

For DGEFMM, which the paper also traces (Figure 9), the twin mirrors the
dynamic-peeling recursion of :mod:`repro.baselines.dgefmm` over a
malloc-like synthetic address space.

Modelled access patterns:

* leaf / conventional multiply — jki order with ``b[k,j]`` register-held:
  per (j, k) one load of B, then per row i a load of ``a[i,k]`` and an
  update of ``c[i,j]`` (one reference each; write-allocate);
* vector addition ``dst = x op y`` — interleaved streams x[i], y[i],
  dst[i];
* Morton conversion — per tile column: contiguous read of the dense
  column segment interleaved with the contiguous tile write (and the
  reverse for the back-conversion).
"""

from __future__ import annotations

import numpy as np

from ..core.workspace import Workspace
from ..layout.matrix import MortonMatrix
from ..layout.padding import Tiling
from ..layout.tiles import iter_tiles
from .trace import ELEM, AddressSpace, TraceSink

__all__ = [
    "matmul_trace",
    "matmul_trace_blocked",
    "vec3_trace",
    "add2d_trace",
    "move2d_trace",
    "conversion_trace",
    "TraceOps",
    "modgemm_trace",
    "dgefmm_trace",
    "dgemmw_trace",
]


def _addr_of(arr: np.ndarray) -> int:
    """Actual virtual base address of a numpy array's data."""
    return arr.__array_interface__["data"][0]


def _register_quadrant_regions(regions, name: str, mm: MortonMatrix) -> None:
    """Register a Morton matrix as four quadrant regions (or one leaf).

    Quadrants are contiguous quarters in NW, NE, SW, SE order — the
    granularity at which the paper's Section 4.2 analysis attributes the
    conflict misses.
    """
    if mm.depth == 0:
        regions.add_array(name, mm.buf)
        return
    quarter = mm.size // 4
    base = _addr_of(mm.buf)
    for i, q in enumerate(("NW", "NE", "SW", "SE")):
        regions.add(f"{name}.{q}", base + i * quarter * ELEM, quarter * ELEM)


def matmul_trace(
    m: int,
    k: int,
    n: int,
    base_a: int,
    ld_a: int,
    base_b: int,
    ld_b: int,
    base_c: int,
    ld_c: int,
    sink: TraceSink,
    elem: int = ELEM,
) -> int:
    """Trace of a column-major jki multiply ``C(m,n) += A(m,k) . B(k,n)``.

    Operands are described by (base byte address, leading dimension).
    Emits ``n*k*(1 + 2m)`` accesses; returns that count.
    """
    if min(m, k, n) < 1:
        raise ValueError(f"dimensions must be >= 1, got {(m, k, n)}")
    i = np.arange(m, dtype=np.int64)
    a_cols = base_a + elem * (i[None, :] + ld_a * np.arange(k, dtype=np.int64)[:, None])
    c_cols = base_c + elem * (i[None, :] + ld_c * np.arange(n, dtype=np.int64)[:, None])
    b_elems = base_b + elem * (
        np.arange(k, dtype=np.int64)[None, :]
        + ld_b * np.arange(n, dtype=np.int64)[:, None]
    )
    out = np.empty((n, k, 1 + 2 * m), dtype=np.int64)
    out[:, :, 0] = b_elems
    out[:, :, 1::2] = a_cols[None, :, :]
    out[:, :, 2::2] = c_cols[:, None, :]
    sink.consume(out.reshape(-1))
    return out.size


def matmul_trace_blocked(
    m: int,
    k: int,
    n: int,
    base_a: int,
    ld_a: int,
    base_b: int,
    ld_b: int,
    base_c: int,
    ld_c: int,
    sink: TraceSink,
    block: int = 8,
    elem: int = ELEM,
) -> int:
    """Trace of a register-blocked multiply (k blocked by ``block``).

    The higher-fidelity kernel model: within one (column j, k-panel) step
    the ``block`` B elements are loaded once, each A column of the panel
    streams through, and the C column is read+written **once per panel**
    instead of once per k — modelling the accumulator registers a tuned
    kernel (or BLAS micro-kernel) keeps across the k-panel.  Total
    accesses: ``n * (k + m*k + 2*m*ceil(k/block))``.

    :func:`matmul_trace` remains the default (scalar jki) model; the
    choice matters mostly for how much C traffic a leaf generates.
    """
    if min(m, k, n) < 1:
        raise ValueError(f"dimensions must be >= 1, got {(m, k, n)}")
    if block < 1:
        raise ValueError(f"block must be >= 1, got {block}")
    i = np.arange(m, dtype=np.int64)
    total = 0
    chunks: list[np.ndarray] = []
    for j in range(n):
        c_col = base_c + elem * (i + ld_c * j)
        for k0 in range(0, k, block):
            k1 = min(k0 + block, k)
            kb = k1 - k0
            b_chunk = base_b + elem * (np.arange(k0, k1, dtype=np.int64) + ld_b * j)
            a_panel = base_a + elem * (
                i[None, :] + ld_a * np.arange(k0, k1, dtype=np.int64)[:, None]
            )
            part = np.concatenate(
                [b_chunk, c_col, a_panel.reshape(-1), c_col]
            )
            chunks.append(part)
            total += part.size
        if len(chunks) >= 256:
            sink.consume(np.concatenate(chunks))
            chunks = []
    if chunks:
        sink.consume(np.concatenate(chunks))
    return total


def vec3_trace(
    count: int,
    base_x: int,
    base_y: int,
    base_dst: int,
    sink: TraceSink,
    elem: int = ELEM,
) -> int:
    """Trace of the single-loop vector op ``dst[i] = x[i] (op) y[i]``.

    This is the paper's Section 3.3 observation in executable form: Morton
    additions are one flat loop over three contiguous streams.
    """
    i = elem * np.arange(count, dtype=np.int64)
    out = np.empty((count, 3), dtype=np.int64)
    out[:, 0] = base_x + i
    out[:, 1] = base_y + i
    out[:, 2] = base_dst + i
    sink.consume(out.reshape(-1))
    return out.size


def add2d_trace(
    rows: int,
    cols: int,
    base_x: int,
    ld_x: int,
    base_y: int,
    ld_y: int,
    base_dst: int,
    ld_dst: int,
    sink: TraceSink,
    elem: int = ELEM,
) -> int:
    """Trace of a two-nested-loop strided addition (column-major views).

    The access pattern of DGEFMM's quadrant additions, where operands are
    submatrix views with distinct leading dimensions.
    """
    i = np.arange(rows, dtype=np.int64)
    j = np.arange(cols, dtype=np.int64)
    out = np.empty((cols, rows, 3), dtype=np.int64)
    out[:, :, 0] = base_x + elem * (i[None, :] + ld_x * j[:, None])
    out[:, :, 1] = base_y + elem * (i[None, :] + ld_y * j[:, None])
    out[:, :, 2] = base_dst + elem * (i[None, :] + ld_dst * j[:, None])
    sink.consume(out.reshape(-1))
    return out.size


def move2d_trace(
    rows: int,
    cols: int,
    base_src: int,
    ld_src: int,
    base_dst: int,
    ld_dst: int,
    sink: TraceSink,
    elem: int = ELEM,
) -> int:
    """Trace of a column-major block copy (read strided, write strided)."""
    i = np.arange(rows, dtype=np.int64)
    j = np.arange(cols, dtype=np.int64)
    out = np.empty((cols, rows, 2), dtype=np.int64)
    out[:, :, 0] = base_src + elem * (i[None, :] + ld_src * j[:, None])
    out[:, :, 1] = base_dst + elem * (i[None, :] + ld_dst * j[:, None])
    sink.consume(out.reshape(-1))
    return out.size


def conversion_trace(
    mm: MortonMatrix,
    base_dense: int,
    ld_dense: int,
    sink: TraceSink,
    to_morton: bool = True,
    elem: int = ELEM,
) -> int:
    """Trace of the interface-level layout conversion for one matrix.

    ``to_morton=True`` models reading the column-major source and writing
    the Morton buffer; ``False`` the back-conversion of the result.  The
    Morton side uses the real buffer address of ``mm``; the dense side the
    caller-provided synthetic or real base.
    """
    base_m = _addr_of(mm.buf)
    tr, tc = mm.tile_r, mm.tile_c
    total = 0
    chunks: list[np.ndarray] = []
    i = np.arange(tr, dtype=np.int64)
    for t in iter_tiles(mm.depth, tr, tc):
        r0, c0 = t.row0, t.col0
        r1 = min(r0 + tr, mm.rows)
        c1 = min(c0 + tc, mm.cols)
        if r1 <= r0 or c1 <= c0:
            continue  # pad-only tile: zero-fill writes only, negligible
        rr = r1 - r0
        j = np.arange(c1 - c0, dtype=np.int64)
        dense = base_dense + elem * ((r0 + i[None, :rr]) + ld_dense * (c0 + j[:, None]))
        morton = (
            base_m
            + elem * (t.offset + i[None, :rr] + tr * j[:, None])
        )
        pair = np.empty((j.shape[0], rr, 2), dtype=np.int64)
        if to_morton:
            pair[:, :, 0] = dense
            pair[:, :, 1] = morton
        else:
            pair[:, :, 0] = morton
            pair[:, :, 1] = dense
        chunks.append(pair.reshape(-1))
        total += pair.size
        if len(chunks) >= 64:
            sink.consume(np.concatenate(chunks))
            chunks = []
    if chunks:
        sink.consume(np.concatenate(chunks))
    return total


class TraceOps:
    """Trace-emitting backend for the real Winograd/Strassen recursion.

    Implements the :class:`repro.core.ops.WinogradOps` protocol over the
    executor's raw buffers; every operation records the address stream it
    would perform, and tallies the floating-point operations for the
    timing model.
    """

    def __init__(self, sink: TraceSink, kernel_model: str = "jki") -> None:
        if kernel_model not in ("jki", "blocked"):
            raise ValueError(f"unknown kernel model {kernel_model!r}")
        self.sink = sink
        self.kernel_model = kernel_model
        self.flops = 0
        self.accesses = 0

    def _mult_trace(self, m, k, n, base_a, ld_a, base_b, ld_b, base_c, ld_c) -> int:
        if self.kernel_model == "blocked":
            return matmul_trace_blocked(
                m, k, n, base_a, ld_a, base_b, ld_b, base_c, ld_c, self.sink
            )
        return matmul_trace(
            m, k, n, base_a, ld_a, base_b, ld_b, base_c, ld_c, self.sink
        )

    def add(self, dst: np.ndarray, x: np.ndarray, y: np.ndarray) -> None:
        """Record the 3-stream trace of ``dst = x + y`` (or ``x - y``)."""
        self.accesses += vec3_trace(
            dst.size, _addr_of(x), _addr_of(y), _addr_of(dst), self.sink
        )
        self.flops += dst.size

    sub = add  # identical traffic and flop count

    def iadd(self, dst: np.ndarray, x: np.ndarray) -> None:
        """Record the trace of ``dst += x``."""
        # dst += x reads dst and x, writes dst: same 3-stream pattern with
        # dst appearing as both an input stream and the destination.
        self.accesses += vec3_trace(
            dst.size, _addr_of(dst), _addr_of(x), _addr_of(dst), self.sink
        )
        self.flops += dst.size

    def leaf_mult(self, a: np.ndarray, b: np.ndarray, dst: np.ndarray) -> None:
        """Record the leaf-kernel trace for one ``(m, k) . (k, n)`` tile product."""
        (m, k), n = a.shape, b.shape[1]
        self.accesses += self._mult_trace(
            m, k, n,
            _addr_of(a), m,
            _addr_of(b), k,
            _addr_of(dst), m,
        )
        self.flops += 2 * m * k * n


def modgemm_trace(
    tilings: tuple[Tiling, Tiling, Tiling],
    sink: TraceSink,
    include_conversion: bool = True,
    variant: str = "winograd",
    kernel_model: str = "jki",
    regions: "object | None" = None,
) -> TraceOps:
    """Full MODGEMM address trace for a planned GEMM.

    Allocates real (zero-filled) Morton buffers and dense operands so every
    traced address is a genuine buffer address, then replays: input
    conversions, the recursion (via :class:`TraceOps` driving the *actual*
    schedule), and the output back-conversion.  Returns the
    :class:`TraceOps` with flop/access tallies.

    ``regions``, when given a :class:`repro.cachesim.classify.RegionMap`,
    is populated with named regions for the operands (with per-quadrant
    subregions, e.g. ``C.NW``), the workspace levels, and the dense
    interface arrays — enabling CProf-style miss attribution.  **Note**:
    the traced buffers are freed when this function returns, so attribute
    against a collected trace, not live memory.
    """
    from ..core.strassen import strassen_multiply
    from ..core.winograd import winograd_multiply

    tm, tk, tn = tilings
    a_mm = MortonMatrix.zeros(tm.n, tk.n, tm, tk)
    b_mm = MortonMatrix.zeros(tk.n, tn.n, tk, tn)
    c_mm = MortonMatrix.zeros(tm.n, tn.n, tm, tn)
    a_dense = np.zeros((tm.n, tk.n), dtype=np.float64, order="F")
    b_dense = np.zeros((tk.n, tn.n), dtype=np.float64, order="F")
    c_dense = np.zeros((tm.n, tn.n), dtype=np.float64, order="F")
    if regions is not None:
        _register_quadrant_regions(regions, "A", a_mm)
        _register_quadrant_regions(regions, "B", b_mm)
        _register_quadrant_regions(regions, "C", c_mm)
        regions.add_array("A.dense", a_dense)
        regions.add_array("B.dense", b_dense)
        regions.add_array("C.dense", c_dense)
        # keep the buffers alive alongside the map so addresses stay valid
        regions._keepalive = (a_mm, b_mm, c_mm, a_dense, b_dense, c_dense)

    ops = TraceOps(sink, kernel_model=kernel_model)
    if include_conversion:
        ops.accesses += conversion_trace(
            a_mm, _addr_of(a_dense), tm.n, sink, to_morton=True
        )
        ops.accesses += conversion_trace(
            b_mm, _addr_of(b_dense), tk.n, sink, to_morton=True
        )
    ws = Workspace(a_mm.depth, a_mm.tile_r, a_mm.tile_c, b_mm.tile_c, with_q=True)
    if regions is not None:
        for i, lv in enumerate(ws.levels):
            regions.add_array(f"ws{i}.S", lv.s.buf)
            regions.add_array(f"ws{i}.T", lv.t.buf)
            regions.add_array(f"ws{i}.P", lv.p.buf)
            if lv.q is not None:
                regions.add_array(f"ws{i}.Q", lv.q.buf)
        regions._keepalive += (ws,)
    if variant == "winograd":
        winograd_multiply(a_mm, b_mm, c_mm, ops=ops, workspace=ws)
    elif variant == "strassen":
        strassen_multiply(a_mm, b_mm, c_mm, ops=ops, workspace=ws)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    if include_conversion:
        ops.accesses += conversion_trace(
            c_mm, _addr_of(c_dense), tm.n, sink, to_morton=False
        )
    return ops


class _DgefmmTracer:
    """Mirror of the dynamic-peeling recursion over a synthetic heap."""

    def __init__(
        self, sink: TraceSink, truncation: int, kernel_model: str = "jki"
    ) -> None:
        if kernel_model not in ("jki", "blocked"):
            raise ValueError(f"unknown kernel model {kernel_model!r}")
        self.sink = sink
        self.truncation = truncation
        self.kernel_model = kernel_model
        self.space = AddressSpace()
        self.flops = 0
        self.accesses = 0

    def _mult_trace(self, m, k, n, a, b, c) -> int:
        if self.kernel_model == "blocked":
            return matmul_trace_blocked(
                m, k, n, a[0], a[1], b[0], b[1], c[0], c[1], self.sink
            )
        return matmul_trace(
            m, k, n, a[0], a[1], b[0], b[1], c[0], c[1], self.sink
        )

    # Matrices are (base, ld) descriptors over the synthetic heap; views
    # adjust base exactly as column-major pointer arithmetic would.

    def multiply(self, a, b, c, m: int, k: int, n: int) -> None:
        if min(m, k, n) <= self.truncation:
            self.accesses += self._mult_trace(m, k, n, a, b, c)
            self.flops += 2 * m * k * n
            return
        me, ke, ne = m & ~1, k & ~1, n & ~1
        self._winograd(a, b, c, me, ke, ne)
        if k != ke:  # rank-1 fix-up: C11 += a12 . b21
            self.accesses += self._mult_trace(
                me, 1, ne,
                (a[0] + ELEM * ke * a[1], a[1]), (b[0] + ELEM * ke, b[1]), c,
            )
            self.flops += 2 * me * ne
        if n != ne:  # matrix-vector: last column of C
            self.accesses += self._mult_trace(
                me, k, 1, a,
                (b[0] + ELEM * ne * b[1], b[1]),
                (c[0] + ELEM * ne * c[1], c[1]),
            )
            self.flops += 2 * me * k
        if m != me:  # vector-matrix: last row of C
            self.accesses += self._mult_trace(
                1, k, n, (a[0] + ELEM * me, a[1]), b,
                (c[0] + ELEM * me, c[1]),
            )
            self.flops += 2 * k * n

    def _view(self, mat, i: int, j: int):
        return (mat[0] + ELEM * (i + j * mat[1]), mat[1])

    def _winograd(self, a, b, c, m: int, k: int, n: int) -> None:
        mh, kh, nh = m // 2, k // 2, n // 2
        a11, a12 = self._view(a, 0, 0), self._view(a, 0, kh)
        a21, a22 = self._view(a, mh, 0), self._view(a, mh, kh)
        b11, b12 = self._view(b, 0, 0), self._view(b, 0, nh)
        b21, b22 = self._view(b, kh, 0), self._view(b, kh, nh)
        c11, c12 = self._view(c, 0, 0), self._view(c, 0, nh)
        c21, c22 = self._view(c, mh, 0), self._view(c, mh, nh)

        s = (self.space.alloc_matrix(mh, kh), mh)
        t = (self.space.alloc_matrix(kh, nh), kh)
        p = (self.space.alloc_matrix(mh, nh), mh)
        q = (self.space.alloc_matrix(mh, nh), mh)

        def add(dst, x, y, rows, cols):
            self.accesses += add2d_trace(
                rows, cols, x[0], x[1], y[0], y[1], dst[0], dst[1], self.sink
            )
            self.flops += rows * cols

        add(s, a11, a21, mh, kh)                    # S3
        add(t, b22, b12, kh, nh)                    # T3
        self.multiply(s, t, p, mh, kh, nh)          # P5
        add(s, a21, a22, mh, kh)                    # S1
        add(t, b12, b11, kh, nh)                    # T1
        self.multiply(s, t, c22, mh, kh, nh)        # P3
        add(s, s, a11, mh, kh)                      # S2
        add(t, b22, t, kh, nh)                      # T2
        self.multiply(s, t, c11, mh, kh, nh)        # P4
        add(s, a12, s, mh, kh)                      # S4
        add(t, b21, t, kh, nh)                      # T4
        self.multiply(s, b22, c12, mh, kh, nh)      # P6
        self.multiply(a22, t, c21, mh, kh, nh)      # P7
        self.multiply(a11, b11, q, mh, kh, nh)      # P1
        add(c11, c11, q, mh, nh)                    # U2
        add(p, p, c11, mh, nh)                      # U3
        add(c12, c12, c11, mh, nh)
        add(c12, c12, c22, mh, nh)
        add(c21, c21, p, mh, nh)
        add(c22, c22, p, mh, nh)
        self.multiply(a12, b21, p, mh, kh, nh)      # P2
        add(c11, q, p, mh, nh)                      # U1

        for buf in (s, t, p, q):
            self.space.free(buf[0])


def dgefmm_trace(
    m: int,
    k: int,
    n: int,
    sink: TraceSink,
    truncation: int = 64,
    kernel_model: str = "jki",
) -> _DgefmmTracer:
    """Full DGEFMM address trace for an ``m x k . k x n`` product."""
    tracer = _DgefmmTracer(sink, truncation, kernel_model=kernel_model)
    a = (tracer.space.alloc_matrix(m, k), m)
    b = (tracer.space.alloc_matrix(k, n), k)
    c = (tracer.space.alloc_matrix(m, n), m)
    tracer.multiply(a, b, c, m, k, n)
    return tracer


class _DgemmwTracer:
    """Mirror of the dynamic-overlap recursion over a synthetic heap.

    Follows :mod:`repro.baselines.dgemmw` step for step: per level, eight
    contiguous block copies (the overlap scheme's extra data movement),
    the 15 Winograd additions on contiguous temporaries, 7 recursive
    products, and the reassembly writes into the parent's result.
    """

    def __init__(self, sink: TraceSink, truncation: int) -> None:
        self.sink = sink
        self.truncation = truncation
        self.space = AddressSpace()
        self.flops = 0
        self.accesses = 0

    def multiply(self, a, b, m: int, k: int, n: int) -> tuple[int, int]:
        """Returns the (base, ld) of the freshly allocated result D."""
        d = (self.space.alloc_matrix(m, n), m)
        if min(m, k, n) <= self.truncation:
            self.accesses += matmul_trace(
                m, k, n, a[0], a[1], b[0], b[1], d[0], d[1], self.sink
            )
            self.flops += 2 * m * k * n
            return d

        mh, kh, nh = (m + 1) // 2, (k + 1) // 2, (n + 1) // 2

        def copy_block(src, i: int, j: int, rows: int, cols: int):
            dst = (self.space.alloc_matrix(rows, cols), rows)
            self.accesses += move2d_trace(
                rows, cols, src[0] + ELEM * (i + j * src[1]), src[1],
                dst[0], dst[1], self.sink,
            )
            return dst

        a11 = copy_block(a, 0, 0, mh, kh)
        a12 = copy_block(a, 0, k - kh, mh, kh)
        a21 = copy_block(a, m - mh, 0, mh, kh)
        a22 = copy_block(a, m - mh, k - kh, mh, kh)
        b11 = copy_block(b, 0, 0, kh, nh)
        b12 = copy_block(b, 0, n - nh, kh, nh)
        b21 = copy_block(b, k - kh, 0, kh, nh)
        b22 = copy_block(b, k - kh, n - nh, kh, nh)

        def temp(rows: int, cols: int):
            return (self.space.alloc_matrix(rows, cols), rows)

        def vadd(dst, x, y, count: int):
            self.accesses += vec3_trace(count, x[0], y[0], dst[0], self.sink)
            self.flops += count

        na, nb = mh * kh, kh * nh
        s1, s2, s3, s4 = temp(mh, kh), temp(mh, kh), temp(mh, kh), temp(mh, kh)
        t1, t2, t3, t4 = temp(kh, nh), temp(kh, nh), temp(kh, nh), temp(kh, nh)
        vadd(s1, a21, a22, na)
        vadd(s2, s1, a11, na)
        vadd(s3, a11, a21, na)
        vadd(s4, a12, s2, na)
        vadd(t1, b12, b11, nb)
        vadd(t2, b22, t1, nb)
        vadd(t3, b22, b12, nb)
        vadd(t4, b21, t2, nb)

        p1 = self.multiply(a11, b11, mh, kh, nh)
        p2 = self.multiply(a12, b21, mh, kh, nh)
        p3 = self.multiply(s1, t1, mh, kh, nh)
        p4 = self.multiply(s2, t2, mh, kh, nh)
        p5 = self.multiply(s3, t3, mh, kh, nh)
        p6 = self.multiply(s4, b22, mh, kh, nh)
        p7 = self.multiply(a22, t4, mh, kh, nh)

        nc = mh * nh
        u2, c11, c21, c22, c12 = (
            temp(mh, nh), temp(mh, nh), temp(mh, nh), temp(mh, nh), temp(mh, nh)
        )
        vadd(u2, p1, p4, nc)
        vadd(c11, p1, p2, nc)
        vadd(u2, u2, p5, nc)      # u3 in place
        vadd(c21, u2, p7, nc)
        vadd(c22, u2, p3, nc)
        vadd(c12, u2, p3, nc)     # reuses u2 as u3; matches 15-add count
        vadd(c12, c12, p6, nc)

        # Reassembly: overlapped strips written twice, second copy wins.
        for blk, i, j in ((c11, 0, 0), (c12, 0, n - nh), (c21, m - mh, 0),
                          (c22, m - mh, n - nh)):
            self.accesses += move2d_trace(
                mh, nh, blk[0], blk[1], d[0] + ELEM * (i + j * d[1]), d[1],
                self.sink,
            )

        for buf in (a11, a12, a21, a22, b11, b12, b21, b22,
                    s1, s2, s3, s4, t1, t2, t3, t4,
                    p1, p2, p3, p4, p5, p6, p7, u2, c11, c21, c22, c12):
            self.space.free(buf[0])
        return d


def dgemmw_trace(
    m: int, k: int, n: int, sink: TraceSink, truncation: int = 64
) -> _DgemmwTracer:
    """Full DGEMMW address trace for an ``m x k . k x n`` product."""
    tracer = _DgemmwTracer(sink, truncation)
    a = (tracer.space.alloc_matrix(m, k), m)
    b = (tracer.space.alloc_matrix(k, n), k)
    tracer.multiply(a, b, m, k, n)
    return tracer

"""Recursion backends: one step-table executor, many interpretations.

Every schedule in :mod:`repro.core.winograd` and :mod:`repro.core.strassen`
is a step table whose rows name operations of this small vocabulary; the
one executor (:meth:`repro.core.winograd.StepTable.execute`) lowers the
operands to raw buffers and dispatches each row to a backend method with
plain ndarrays.  Two backends implement it:

* :class:`NumpyOps` — performs the arithmetic.  Because every Morton
  quadrant is a contiguous buffer, all 15 Winograd additions are single
  1-D vector operations (the paper's "single loop rather than two nested
  loops", Section 3.3), executed in place with no temporaries.
* ``TraceOps`` (in :mod:`repro.cachesim.tracegen`) — emits the memory
  address trace of exactly the same computation for the cache simulator,
  replacing ATOM in the paper's methodology.

Keeping a single executor ensures the simulated cache behaviour belongs to
the very code being timed, not to a drifting re-implementation.
"""

from __future__ import annotations

import threading
from typing import Protocol

import numpy as np

from ..blas.kernels import (
    LeafKernel,
    get_batch_kernel,
    get_kernel,
    guarded_kernel,
)

__all__ = ["WinogradOps", "NumpyOps", "FUSE_CHUNK_ELEMS"]

#: Elements per chunk of a fused three-operand addition pass: 1 << 14
#: float64 values = 128 KiB, sized so the chunk intermediate stays
#: cache-resident while each full-size operand is streamed exactly once.
FUSE_CHUNK_ELEMS = 1 << 14


class WinogradOps(Protocol):
    """Operations the step tables name, over raw ndarrays.

    The addition passes take same-shape flat quadrant buffers: 1-D for
    one product, ``(B, elems)`` for a stacked batch.  ``leaf_mult`` takes
    leaf-kernel tile views: 2-D ``(m, k)``/``(k, n)``/``(m, n)`` tiles,
    or ``(B, k, m)``/``(B, n, k)``/``(B, n, m)`` stacks of transposed
    tiles for a batch (see :mod:`repro.blas.kernels`).

    ``add``/``sub``/``iadd``/``leaf_mult`` are the classic vocabulary every
    backend implements (including the cache-simulator trace emitter).  A
    backend needs exactly the ops of the tables it runs: the low-memory
    schedules (:mod:`repro.core.winograd`, ``memory=`` other than
    ``"classic"``) additionally name the fused pass ``add3``.
    """

    def add(self, dst: np.ndarray, x: np.ndarray, y: np.ndarray) -> None:
        """``dst = x + y`` (dst may alias x or y)."""

    def sub(self, dst: np.ndarray, x: np.ndarray, y: np.ndarray) -> None:
        """``dst = x - y`` (dst may alias x or y)."""

    def iadd(self, dst: np.ndarray, x: np.ndarray) -> None:
        """``dst += x``."""

    def add3(
        self, dst: np.ndarray, x: np.ndarray, y: np.ndarray, z: np.ndarray
    ) -> None:
        """``dst = (x + y) + z`` in one fused pass (dst may alias any operand)."""

    def leaf_mult(self, a: np.ndarray, b: np.ndarray, dst: np.ndarray) -> None:
        """``dst = a . b`` on leaf tile views."""

    # The alpha/beta-folding vocabulary (``add_scale``, ``iadd_scale``,
    # ``add3_scale``, ``accumulate``) is NumpyOps-only: the engine invokes
    # it exclusively for non-default GemmSpecs, which never reach the
    # cache-simulator backend, so TraceOps keeps the classic surface.


_fuse_scratch = threading.local()


def _fuse_chunk(dtype: np.dtype, elems: int = FUSE_CHUNK_ELEMS) -> np.ndarray:
    """Per-thread cache-sized staging chunk for fused addition passes.

    One grow-only buffer per dtype; ``elems`` may exceed the default when a
    batched pass needs at least one full batch column per chunk.
    """
    bufs = getattr(_fuse_scratch, "bufs", None)
    if bufs is None:
        bufs = _fuse_scratch.bufs = {}
    key = np.dtype(dtype).str
    buf = bufs.get(key)
    if buf is None or buf.size < elems:
        buf = bufs[key] = np.empty(max(elems, FUSE_CHUNK_ELEMS), dtype=dtype)
    return buf


class NumpyOps:
    """The arithmetic backend.

    ``kernel`` selects the leaf multiply (see :mod:`repro.blas.kernels`).
    ``fused_adds`` counts fused three-operand passes, :meth:`add3` and its
    alpha-scaled form :meth:`add3_scale` alike.

    ``trace`` is an optional :class:`repro.observe.Tracer`: when set and
    enabled, every addition pass emits exactly one ``"add"`` event (its
    ``elems`` is the per-item element count, also for a batch slab) and
    every leaf product one ``"leaf"`` event (a batched stack is one event
    carrying ``items``).  The disabled cost is one predicate check per
    operation — neither timestamps nor events are produced.
    ``validate=True`` (debug mode) wraps both leaf kernels with the
    NaN/Inf guard of :func:`repro.blas.kernels.guarded_kernel`; the
    arithmetic is untouched either way.

    The passes trust the executor's one conformability check per call:
    operand shapes are not re-checked per pass (numpy still rejects
    mismatched shapes of the plain ufunc passes).
    """

    def __init__(
        self,
        kernel: "str | LeafKernel" = "numpy",
        trace=None,
        validate: bool = False,
    ) -> None:
        self.kernel = get_kernel(kernel)
        self.batch_kernel = get_batch_kernel(kernel)
        if validate:
            self.kernel = guarded_kernel(self.kernel)
            self.batch_kernel = guarded_kernel(self.batch_kernel)
        self.trace = trace
        self.fused_adds = 0

    def _emit(self, label: str, dst: np.ndarray) -> None:
        """Trace one addition pass (callers pre-check ``trace.enabled``)."""
        self.trace.emit("add", label=label, elems=dst.shape[-1])

    def add(self, dst: np.ndarray, x: np.ndarray, y: np.ndarray) -> None:
        """``dst = x + y`` as one flat vector operation."""
        np.add(x, y, out=dst)
        tr = self.trace
        if tr is not None and tr.enabled:
            self._emit("add", dst)

    def sub(self, dst: np.ndarray, x: np.ndarray, y: np.ndarray) -> None:
        """``dst = x - y`` as one flat vector operation."""
        np.subtract(x, y, out=dst)
        tr = self.trace
        if tr is not None and tr.enabled:
            self._emit("sub", dst)

    def iadd(self, dst: np.ndarray, x: np.ndarray) -> None:
        """``dst += x`` in place."""
        dst += x
        tr = self.trace
        if tr is not None and tr.enabled:
            self._emit("iadd", dst)

    def add3(
        self, dst: np.ndarray, x: np.ndarray, y: np.ndarray, z: np.ndarray
    ) -> None:
        """``dst = (x + y) + z`` streaming each operand once.

        Evaluated chunk-wise with a cache-resident intermediate, so ``dst``
        is written in a single pass instead of the 2-3 read-modify-write
        passes the unfused U-chain performs.  The association is fixed
        left-to-right — element-for-element the same operations as
        ``add(dst, x, y); iadd(dst, z)`` — so fusion never perturbs bits.
        ``dst`` may alias any operand: each chunk is staged before the
        destination slice is written.
        """
        self._fused3(dst, x, y, z, None, "add3")

    def _fused3(self, dst, x, y, z, alpha, label: str) -> None:
        """The chunked ``(x + y) + z`` pass, scaled unless ``alpha`` is None."""
        if not dst.shape == x.shape == y.shape == z.shape:
            # Chunked slices would silently truncate a longer operand.
            raise ValueError(
                f"operand shapes {dst.shape}, {x.shape}, {y.shape}, "
                f"{z.shape} of a fused addition differ"
            )
        # Chunk along the element axis (a flat buffer is a batch of one) so
        # every pass covers the whole batch — chunk boundaries never change
        # the elementwise arithmetic, only its staging granularity.
        d, xb, yb, zb = (np.atleast_2d(m) for m in (dst, x, y, z))
        bsz, elems = d.shape
        step = max(1, FUSE_CHUNK_ELEMS // bsz)
        tmp = _fuse_chunk(d.dtype, bsz * step)
        for i in range(0, elems, step):
            j = min(i + step, elems)
            t = tmp[: bsz * (j - i)].reshape(bsz, j - i)
            np.add(xb[:, i:j], yb[:, i:j], out=t)
            if alpha is None:
                np.add(t, zb[:, i:j], out=d[:, i:j])
            else:
                np.add(t, zb[:, i:j], out=t)
                np.multiply(t, alpha, out=d[:, i:j])
        self.fused_adds += 1
        tr = self.trace
        if tr is not None and tr.enabled:
            self._emit(label, dst)

    # ------------------------------------------------ alpha/beta folding

    def add_scale(
        self, dst: np.ndarray, x: np.ndarray, y: np.ndarray, alpha: float
    ) -> None:
        """``dst = alpha * (x + y)`` in one streamed pass.

        The final U-adds of a recursion call this (instead of ``add``)
        when the plan's spec carries ``alpha != 1`` — the scale rides the
        pass that writes C's quadrant anyway, so alpha costs no extra
        full-matrix traffic.  Elementwise this is ``(x + y) * alpha``,
        bit-identical to computing the plain product and scaling after.
        """
        np.add(x, y, out=dst)
        np.multiply(dst, alpha, out=dst)
        tr = self.trace
        if tr is not None and tr.enabled:
            self._emit("add_scale", dst)

    def iadd_scale(self, dst: np.ndarray, x: np.ndarray, alpha: float) -> None:
        """``dst = alpha * (dst + x)`` in place (a scaled final U-add)."""
        np.add(dst, x, out=dst)
        np.multiply(dst, alpha, out=dst)
        tr = self.trace
        if tr is not None and tr.enabled:
            self._emit("iadd_scale", dst)

    def add3_scale(
        self,
        dst: np.ndarray,
        x: np.ndarray,
        y: np.ndarray,
        z: np.ndarray,
        alpha: float,
    ) -> None:
        """``dst = alpha * ((x + y) + z)``, fused and chunked like ``add3``.

        Same staging discipline as :meth:`add3` (dst may alias any
        operand; chunk boundaries never perturb bits), with the scale
        applied to each staged chunk before it lands in ``dst``.  Counted
        in ``fused_adds`` like :meth:`add3` — that counter pins the
        schedule's fusion structure, which is identical whatever alpha is.
        """
        self._fused3(dst, x, y, z, alpha, "add3_scale")

    def accumulate(self, dst: np.ndarray, x: np.ndarray, beta: float) -> None:
        """``dst = x + beta * dst``: fold a freshly computed product ``x``
        into a live C (the BLAS beta contract) in Morton space.

        Elementwise identical to the reference ``c *= beta; c += d``
        (multiply first, then add), so results stay bit-compatible with
        the epilogue it replaces.
        """
        np.multiply(dst, beta, out=dst)
        np.add(dst, x, out=dst)
        tr = self.trace
        if tr is not None and tr.enabled:
            tr.emit("accumulate", label="morton", elems=dst.shape[-1])

    # ----------------------------------------------------- leaf products

    def leaf_mult(
        self,
        a: np.ndarray,
        b: np.ndarray,
        dst: np.ndarray,
        alpha: float = 1.0,
    ) -> None:
        """Multiply two leaf tile views (or stacked batches) with the kernel.

        3-D stacks route to the batched kernel, so an entire
        ``(B, T, T)`` leaf site is one call.  ``alpha`` scales the freshly
        written tile in place — only a depth-0 recursion (the whole
        product is one leaf) pays this, deeper plans fold alpha into the
        final U-adds instead.
        """
        batched = dst.ndim == 3
        (self.batch_kernel if batched else self.kernel)(a, b, dst)
        if alpha != 1.0:
            dst *= alpha
        tr = self.trace
        if tr is not None and tr.enabled:
            if batched:
                tr.emit("leaf", label="batch", items=dst.shape[0])
            else:
                tr.emit("leaf", label="tile")

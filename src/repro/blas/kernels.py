"""Leaf (below-truncation-point) matrix-multiplication kernels.

A significant fraction of the Strassen-Winograd computation happens in the
routine that multiplies tiles once the recursion truncates (Section 3.3),
so the kernel is pluggable:

* ``"numpy"`` — :func:`leaf_matmul`, delegating to ``numpy.matmul`` (the
  host BLAS).  This is the production kernel; the paper's hand-tuned C
  kernel plays the same role (see DESIGN.md, substitutions).
* ``"blocked"`` — :func:`blocked_matmul`, a register-blocking-style
  two-level loop nest in pure numpy.  Orders of magnitude slower, but its
  access pattern is exactly the one the trace generators model, so it
  documents and cross-checks the cache-simulation substrate.
* ``"naive"`` — :func:`naive_matmul`, the textbook triple loop (tests only).
* ``"mixed"`` — :func:`mixed_matmul`, float32-storage operands multiplied
  with float64 accumulation (half the memory traffic of a float64 run,
  float64 rounding inside each leaf product).
* ``"numba"`` — a JIT-compiled loop-nest tile kernel when :mod:`numba`
  is importable; otherwise a documented alias of :func:`leaf_matmul`, so
  ``kernel="numba"`` degrades to the BLAS path instead of failing.

Further backends plug in through :func:`register_kernel`; ``kernel=``
names on sessions and batches all resolve through the same
:data:`KERNELS` registry via :func:`get_kernel`.

All kernels have the same signature::

    kernel(a, b, out, accumulate=False)

with 2-D array views ``a (m,k)``, ``b (k,n)``, ``out (m,n)``; ``accumulate``
adds into ``out`` instead of overwriting.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Protocol

import numpy as np

from ..errors import KernelError, ShapeError

__all__ = [
    "LeafKernel",
    "leaf_matmul",
    "leaf_matmul_batch",
    "blocked_matmul",
    "naive_matmul",
    "mixed_matmul",
    "HAVE_NUMBA",
    "KERNELS",
    "register_kernel",
    "get_kernel",
    "get_batch_kernel",
    "guarded_kernel",
    "get_accumulate_cap",
    "set_accumulate_cap",
]


class LeafKernel(Protocol):
    """Callable signature every leaf kernel satisfies."""

    def __call__(
        self, a: np.ndarray, b: np.ndarray, out: np.ndarray, accumulate: bool = False
    ) -> None: ...


_acc_scratch = threading.local()

#: Default cap on the accumulate-staging buffer a thread may keep pinned:
#: 1 << 20 float64 elements = 8 MiB.  Bigger requests get a transient
#: buffer so long-lived worker threads don't hold the largest tile ever
#: staged.  Override with the ``REPRO_ACCUM_CAP`` environment variable
#: (read once at import) or :func:`set_accumulate_cap` at runtime.
_ACC_SCRATCH_MAX_ELEMS = 1 << 20


def _env_accumulate_cap() -> int:
    raw = os.environ.get("REPRO_ACCUM_CAP", "").strip()
    if not raw:
        return _ACC_SCRATCH_MAX_ELEMS
    try:
        cap = int(raw)
    except ValueError:
        raise KernelError(
            f"REPRO_ACCUM_CAP must be a non-negative integer, got {raw!r}"
        ) from None
    if cap < 0:
        raise KernelError(
            f"REPRO_ACCUM_CAP must be a non-negative integer, got {raw!r}"
        )
    return cap


_acc_cap = _env_accumulate_cap()


def get_accumulate_cap() -> int:
    """Current accumulate-scratch cap, in float64 elements."""
    return _acc_cap


def set_accumulate_cap(n_elems: int) -> int:
    """Set the accumulate-scratch cap; returns the previous value.

    Requests at or below the cap are served from a grow-only per-thread
    buffer; requests above it allocate a transient buffer per call (the
    allocation is freed as soon as the leaf product returns, trading
    allocator traffic for a bounded resident footprint).  A cap of 0
    makes every accumulate staging transient.
    """
    global _acc_cap
    if not isinstance(n_elems, int) or isinstance(n_elems, bool) or n_elems < 0:
        raise KernelError(
            f"accumulate cap must be a non-negative int, got {n_elems!r}"
        )
    prev = _acc_cap
    _acc_cap = n_elems
    return prev


def _accumulate_scratch(n_elems: int) -> np.ndarray:
    """Per-thread staging buffer for the accumulate path, bounded in size.

    Grows on demand up to :func:`get_accumulate_cap`; requests above the
    cap are served by a throwaway allocation and never cached.
    """
    if n_elems > _acc_cap:
        return np.empty(n_elems, dtype=np.float64)
    buf = getattr(_acc_scratch, "buf", None)
    if buf is not None and buf.size > max(_acc_cap, 4096):
        buf = None  # cap was lowered since this thread last staged
    if buf is None or buf.size < n_elems:
        buf = np.empty(max(n_elems, 4096), dtype=np.float64)
        _acc_scratch.buf = buf
    return buf


def leaf_matmul(
    a: np.ndarray, b: np.ndarray, out: np.ndarray, accumulate: bool = False
) -> None:
    """BLAS-backed kernel: ``out (+)= a @ b``.

    ``numpy.matmul`` with an ``out=`` argument requires a C-contiguous
    destination; Morton leaf tiles are Fortran-order views, so we instead
    compute ``(b.T @ a.T)`` into ``out.T`` — the same product, with the
    transposed destination C-contiguous exactly when ``out`` is
    F-contiguous.  Falls back to a temporary for exotic strides.

    The accumulate path stages the product in a per-thread grow-only
    scratch and adds it in place, so hot accumulate leaves (panelled
    products, peeling baselines) stop allocating a temporary per call.
    """
    same_dtype = a.dtype == b.dtype == out.dtype
    if accumulate:
        ot = out.T
        if same_dtype and out.dtype == np.float64 and (
            ot.flags.c_contiguous or out.flags.c_contiguous
        ):
            m, n = out.shape
            tmp = _accumulate_scratch(m * n)
            if ot.flags.c_contiguous:
                t2 = tmp[: m * n].reshape(n, m)
                np.matmul(b.T, a.T, out=t2)
                np.add(ot, t2, out=ot)
            else:
                t2 = tmp[: m * n].reshape(m, n)
                np.matmul(a, b, out=t2)
                np.add(out, t2, out=out)
        else:
            out += a @ b
        return
    ot = out.T
    if ot.flags.c_contiguous and same_dtype:
        np.matmul(b.T, a.T, out=ot)
    elif out.flags.c_contiguous and same_dtype:
        np.matmul(a, b, out=out)
    else:
        out[...] = a @ b


def blocked_matmul(
    a: np.ndarray,
    b: np.ndarray,
    out: np.ndarray,
    accumulate: bool = False,
    block: int = 8,
) -> None:
    """Two-level blocked j-k-i loop nest (column-major friendly).

    The loop order walks ``out`` and ``a`` down columns — the layout of
    Morton leaf tiles — in ``block``-wide panels.  This mirrors the access
    pattern of :func:`repro.cachesim.tracegen.matmul_trace`, which is the
    instrumented twin of this kernel.
    """
    m, k = a.shape
    k2, n = b.shape
    if k != k2 or out.shape != (m, n):
        raise ShapeError(f"shape mismatch: a {a.shape}, b {b.shape}, out {out.shape}")
    if not accumulate:
        out[...] = 0.0
    for j0 in range(0, n, block):
        j1 = min(j0 + block, n)
        for k0 in range(0, k, block):
            k1 = min(k0 + block, k)
            # (m x kb) @ (kb x jb) panel update, vectorised over rows.
            out[:, j0:j1] += a[:, k0:k1] @ b[k0:k1, j0:j1]


def naive_matmul(
    a: np.ndarray, b: np.ndarray, out: np.ndarray, accumulate: bool = False
) -> None:
    """Textbook i-j-k triple loop.  For correctness tests on tiny inputs only."""
    m, k = a.shape
    k2, n = b.shape
    if k != k2 or out.shape != (m, n):
        raise ShapeError(f"shape mismatch: a {a.shape}, b {b.shape}, out {out.shape}")
    if not accumulate:
        out[...] = 0.0
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for p in range(k):
                acc += a[i, p] * b[p, j]
            out[i, j] += acc


def leaf_matmul_batch(
    a: np.ndarray, b: np.ndarray, out: np.ndarray, accumulate: bool = False
) -> None:
    """Batched BLAS kernel over stacks of *transposed* leaf tiles.

    Operands are the ``(batch, tile_c, tile_r)`` views the step-table
    executor takes of a batch stack's leaf tiles: slice ``i`` of each
    stack is item ``i``'s tile transposed, in C order.  ``matmul(b, a)`` therefore
    computes ``(B_i.T @ A_i.T) = (A_i @ B_i).T`` slice-wise into the
    transposed destination — the batched form of :func:`leaf_matmul`'s
    contiguity trick, and (empirically and by BLAS dispatch) bit-identical
    to the per-item 2-D products.
    """
    if accumulate:
        tmp = np.empty(out.shape, dtype=out.dtype)
        np.matmul(b, a, out=tmp)
        np.add(out, tmp, out=out)
        return
    np.matmul(b, a, out=out)


def mixed_matmul(
    a: np.ndarray, b: np.ndarray, out: np.ndarray, accumulate: bool = False
) -> None:
    """Mixed-precision kernel: float32 storage, float64 accumulation.

    Operands (typically float32 leaf tiles, half the memory traffic of a
    float64 run) are widened to float64 for the product, so every
    within-leaf accumulation rounds in float64; only the final store back
    to ``out`` rounds to the storage dtype.  On float64 inputs the widen
    is a no-op view and the kernel matches :func:`leaf_matmul`'s
    fallback arithmetic exactly.
    """
    a64 = a.astype(np.float64, copy=False)
    b64 = b.astype(np.float64, copy=False)
    prod = np.matmul(a64, b64)
    if accumulate:
        np.add(out, prod, out=out, casting="same_kind")
    else:
        out[...] = prod


def _mixed_matmul_batch(
    a: np.ndarray, b: np.ndarray, out: np.ndarray, accumulate: bool = False
) -> None:
    """Batched :func:`mixed_matmul` over stacks of transposed leaf tiles.

    Same stacked-transpose convention as :func:`leaf_matmul_batch`:
    ``matmul(b, a)`` computes each item's transposed product directly
    into the transposed destination stack, here via float64 widening.
    """
    a64 = a.astype(np.float64, copy=False)
    b64 = b.astype(np.float64, copy=False)
    prod = np.matmul(b64, a64)
    if accumulate:
        np.add(out, prod, out=out, casting="same_kind")
    else:
        out[...] = prod


try:  # pragma: no cover - exercised only where numba is installed
    import numba as _numba
except ImportError:  # pragma: no cover
    _numba = None

#: True when the optional :mod:`numba` JIT backend is importable.
HAVE_NUMBA = _numba is not None

if HAVE_NUMBA:  # pragma: no cover - exercised only where numba is installed

    @_numba.njit(cache=True)
    def _numba_core(a, b, out, accumulate):
        m, k = a.shape
        n = b.shape[1]
        for j in range(n):
            for i in range(m):
                acc = 0.0
                for p in range(k):
                    acc += a[i, p] * b[p, j]
                if accumulate:
                    out[i, j] += acc
                else:
                    out[i, j] = acc

    def numba_matmul(
        a: np.ndarray, b: np.ndarray, out: np.ndarray, accumulate: bool = False
    ) -> None:
        """JIT-compiled j-i-k loop nest (column-major friendly) tile kernel."""
        _numba_core(a, b, out, accumulate)

else:
    # Without numba the name degrades to the BLAS path: ``kernel="numba"``
    # stays valid everywhere, it just selects leaf_matmul's arithmetic.
    numba_matmul = leaf_matmul


def _loop_batch(kernel: LeafKernel) -> Callable:
    """Per-item fallback: run a 2-D kernel over each slice of the stacks.

    Slice ``i`` of a stack is the C-order transpose of item ``i``'s tile,
    so ``stack[i].T`` recovers the F-order 2-D view the kernel expects.
    """

    def run(
        a: np.ndarray, b: np.ndarray, out: np.ndarray, accumulate: bool = False
    ) -> None:
        for i in range(out.shape[0]):
            kernel(a[i].T, b[i].T, out[i].T, accumulate=accumulate)

    return run


KERNELS: dict[str, Callable] = {
    "numpy": leaf_matmul,
    "blocked": blocked_matmul,
    "naive": naive_matmul,
    "mixed": mixed_matmul,
    "numba": numba_matmul,
}

#: Dedicated batched implementations, keyed by the 2-D impl *identity*
#: (PlanKey compares kernels by identity, so impls must be stable
#: module-level callables).  Kernels absent here batch through
#: :func:`_loop_batch`.
BATCH_IMPLS: dict[Callable, Callable] = {
    leaf_matmul: leaf_matmul_batch,
    mixed_matmul: _mixed_matmul_batch,
}


def register_kernel(
    name: str,
    impl: LeafKernel,
    batch_impl: "Callable | None" = None,
    *,
    replace: bool = False,
) -> LeafKernel:
    """Register a leaf-kernel backend under ``name``; returns ``impl``.

    Once registered the backend is selectable uniformly through
    ``kernel=name`` on :class:`~repro.engine.GemmSession` and batched
    multiplies — everything funnels through :func:`get_kernel`.  ``impl``
    must follow the module's kernel contract
    (``impl(a, b, out, accumulate=False)`` over 2-D views).
    ``batch_impl``, when given, handles the stacked-transposed batch form
    (see :func:`leaf_matmul_batch`); otherwise the backend batches via a
    per-item loop with identical arithmetic.  Re-registering an existing
    name requires ``replace=True``.
    """
    if not isinstance(name, str) or not name:
        raise KernelError(f"kernel name must be a non-empty str, got {name!r}")
    if not callable(impl):
        raise KernelError(f"kernel impl for {name!r} must be callable")
    if batch_impl is not None and not callable(batch_impl):
        raise KernelError(f"batch_impl for {name!r} must be callable or None")
    if name in KERNELS and not replace:
        raise KernelError(
            f"kernel {name!r} is already registered; pass replace=True "
            "to override"
        )
    KERNELS[name] = impl
    if batch_impl is not None:
        BATCH_IMPLS[impl] = batch_impl
    return impl


def get_kernel(kernel: "str | LeafKernel") -> LeafKernel:
    """Resolve a kernel by name or pass a callable through.

    Unknown names raise :class:`~repro.errors.KernelError` listing every
    registered backend, including ones added via :func:`register_kernel`.
    """
    if callable(kernel):
        return kernel
    try:
        return KERNELS[kernel]
    except (KeyError, TypeError):
        raise KernelError(
            f"unknown kernel {kernel!r}; registered backends: "
            f"{sorted(KERNELS)}"
        ) from None


def get_batch_kernel(kernel: "str | LeafKernel") -> LeafKernel:
    """Resolve the batched (stacked-leaf) form of a kernel.

    Backends with a dedicated batch implementation in :data:`BATCH_IMPLS`
    (the production ``"numpy"`` kernel maps to :func:`leaf_matmul_batch` —
    one batched ``matmul`` per leaf site) use it; every other kernel —
    including user callables — gets a per-item loop wrapper, preserving
    its exact arithmetic at leaf granularity.
    """
    resolved = get_kernel(kernel)
    batched = BATCH_IMPLS.get(resolved)
    if batched is not None:
        return batched
    return _loop_batch(resolved)


def guarded_kernel(kernel: "str | LeafKernel") -> LeafKernel:
    """Wrap a kernel with a NaN/Inf guard on its output (validation mode).

    ``GemmSession(debug=True)`` routes every leaf product — single-tile
    and batched — through this wrapper, so a non-finite value is reported
    at the leaf that produced it (:class:`repro.errors.InvariantError`
    with the tile shape) instead of surfacing, untraceably, after several
    U-chain additions have smeared it across the output.  The guard never
    changes the arithmetic: it runs the wrapped kernel unmodified and
    only *reads* the result.
    """
    from ..observe.validate import check_finite  # deferred: avoid cycle

    base = get_kernel(kernel)

    def guarded(
        a: np.ndarray, b: np.ndarray, out: np.ndarray, accumulate: bool = False
    ) -> None:
        base(a, b, out, accumulate=accumulate)
        check_finite(out, label=getattr(base, "__name__", "kernel"))

    guarded.__wrapped__ = base
    guarded.__name__ = f"guarded[{getattr(base, '__name__', 'kernel')}]"
    return guarded

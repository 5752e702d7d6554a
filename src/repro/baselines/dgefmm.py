"""DGEFMM: Strassen-Winograd with dynamic peeling (Huss-Lederman et al. '96).

The paper's primary comparison point (all Figure 5/6/8/9 results are
normalised to it).  Characteristics reproduced here:

* **column-major storage throughout** — quadrants are strided views of the
  caller's arrays, so the Winograd additions are 2-D strided operations
  (two nested loops in the original Fortran; numpy's strided ufunc here),
  in contrast to MODGEMM's contiguous 1-D buffer additions;
* **fixed recursion truncation point** — the empirically determined value
  64 used in the paper's experiments (Section 4);
* **dynamic peeling of odd dimensions** — an odd m, k or n peels one
  row/column and later applies a fix-up computation built from
  matrix-vector products, whose limited reuse is precisely the drawback
  the paper attributes to this scheme (Section 3.2):

  with ``A = [A11 | a12; a21 | a22]`` and ``B = [B11 | b12; b21 | b22]``
  split at the even sizes ``m', k', n'``::

      C11 = A11.B11 + a12.b21      (rank-1 fix-up when k is odd)
      c12 = A.(last column of B)   (matrix-vector, when n is odd)
      c21 = (last row of A).B      (vector-matrix, when m is odd)
"""

from __future__ import annotations

import numpy as np

from ..blas.dgemm import GemmProblem, OpKind
from ..blas.kernels import LeafKernel, get_kernel
from ..core.truncation import TruncationPolicy

__all__ = ["dgefmm", "peeled_multiply", "DEFAULT_TRUNCATION"]

#: The empirically determined recursion truncation point used for DGEFMM in
#: the paper's experiments (Section 4).
DEFAULT_TRUNCATION = 64


def dgefmm(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray | None = None,
    alpha: float = 1.0,
    beta: float = 0.0,
    op_a: "OpKind | str" = "n",
    op_b: "OpKind | str" = "n",
    policy: "TruncationPolicy | int | str | None" = None,
    kernel: "str | LeafKernel" = "numpy",
) -> np.ndarray:
    """BLAS-style dgemm via dynamic-peeling Strassen-Winograd.

    ``policy`` accepts the same forms as :func:`repro.modgemm` (a
    :class:`TruncationPolicy`, an int truncation point, or
    ``"dynamic"``/``"fixed"``); it maps to this scheme's single recursion
    crossover via :meth:`TruncationPolicy.truncation_point` (default 64,
    the paper's Section 4 value).
    """
    point = (
        DEFAULT_TRUNCATION if policy is None
        else TruncationPolicy.coerce(policy).truncation_point()
    )
    p = GemmProblem.create(a, b, op_a=op_a, op_b=op_b, alpha=alpha, beta=beta, c=c)
    d = peeled_multiply(p.op_a_view, p.op_b_view, point, get_kernel(kernel))
    result = p.apply_scaling(d, c)
    if c is not None and result is not c:
        c[...] = result
        return c
    return result


def peeled_multiply(
    a: np.ndarray,
    b: np.ndarray,
    truncation: int = DEFAULT_TRUNCATION,
    kernel: "LeafKernel | None" = None,
) -> np.ndarray:
    """``D = A . B`` on column-major operands, peeling odd dimensions."""
    if truncation < 1:
        raise ValueError(f"truncation must be >= 1, got {truncation}")
    if kernel is None:
        kernel = get_kernel("numpy")
    m, k = a.shape
    k2, n = b.shape
    if k != k2:
        raise ValueError(f"inner dimensions disagree: {a.shape} x {b.shape}")
    d = np.empty((m, n), dtype=np.float64, order="F")
    _multiply(a, b, d, truncation, kernel)
    return d


def _multiply(a, b, c, truncation: int, kernel) -> None:
    """``C = A . B`` (overwrite), recursing with peeling."""
    m, k = a.shape
    n = b.shape[1]
    if min(m, k, n) <= truncation:
        kernel(a, b, c, accumulate=False)
        return

    me, ke, ne = m & ~1, k & ~1, n & ~1
    _winograd_even(
        a[:me, :ke], b[:ke, :ne], c[:me, :ne], truncation, kernel
    )
    # Fix-up computations (matrix-vector shaped; limited reuse by design).
    if k != ke:
        # C11 += a12 . b21  — rank-1 update of the peeled product.
        c[:me, :ne] += np.outer(a[:me, ke], b[ke, :ne])
    if n != ne:
        # Last column(s) of C: full matrix-vector product.
        c[:me, ne:] = a[:me, :] @ b[:, ne:]
    if m != me:
        # Last row(s) of C: full vector-matrix product.
        c[me:, :] = a[me:, :] @ b
    return


def _winograd_even(a, b, c, truncation: int, kernel) -> None:
    """One Winograd level over even-dimension operands (strided views).

    Same equation schedule as :mod:`repro.core.winograd`, but over
    column-major quadrant views with freshly allocated F-order temporaries
    at each level — the storage discipline of the original DGEFMM code.
    """
    m, k = a.shape
    n = b.shape[1]
    mh, kh, nh = m // 2, k // 2, n // 2
    a11, a12 = a[:mh, :kh], a[:mh, kh:]
    a21, a22 = a[mh:, :kh], a[mh:, kh:]
    b11, b12 = b[:kh, :nh], b[:kh, nh:]
    b21, b22 = b[kh:, :nh], b[kh:, nh:]
    c11, c12 = c[:mh, :nh], c[:mh, nh:]
    c21, c22 = c[mh:, :nh], c[mh:, nh:]

    s = np.empty((mh, kh), dtype=np.float64, order="F")
    t = np.empty((kh, nh), dtype=np.float64, order="F")
    p = np.empty((mh, nh), dtype=np.float64, order="F")
    q = np.empty((mh, nh), dtype=np.float64, order="F")

    np.subtract(a11, a21, out=s)        # S3
    np.subtract(b22, b12, out=t)        # T3
    _multiply(s, t, p, truncation, kernel)      # P = P5
    np.add(a21, a22, out=s)             # S1
    np.subtract(b12, b11, out=t)        # T1
    _multiply(s, t, c22, truncation, kernel)    # C22 = P3
    np.subtract(s, a11, out=s)          # S2
    np.subtract(b22, t, out=t)          # T2
    _multiply(s, t, c11, truncation, kernel)    # C11 = P4
    np.subtract(a12, s, out=s)          # S4
    np.subtract(b21, t, out=t)          # T4
    _multiply(s, b22, c12, truncation, kernel)  # C12 = P6
    _multiply(a22, t, c21, truncation, kernel)  # C21 = P7

    _multiply(a11, b11, q, truncation, kernel)  # Q = P1
    c11 += q                            # U2 = P1 + P4
    p += c11                            # U3 = U2 + P5
    c12 += c11                          # P6 + U2
    c12 += c22                          # U7 (final C12)
    c21 += p                            # U4 (final C21)
    c22 += p                            # U5 (final C22)
    _multiply(a12, b21, p, truncation, kernel)  # P = P2
    np.add(q, p, out=c11)               # U1 (final C11)

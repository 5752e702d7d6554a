"""DGEMMW: Strassen-Winograd with dynamic overlap (Douglas et al. 1994).

The second comparison implementation in the paper's evaluation.  Odd-sized
dimensions are handled by splitting into two ``ceil(d/2)``-sized blocks
that *overlap* by one row or column (Section 3.2):

* an odd **output** dimension (m or n) duplicates one row/column of the
  operands; the shared strip of C is computed twice — identically — and
  one copy is simply overwritten ("computing the results for the shared
  row or column in both subproblems, and ignoring one of the copies");
* an odd **inner** dimension (k) would double-count the shared column of
  A / row of B in ``C = A1.B1 + A2.B2``, so the duplicated leading column
  of the second A-blocks is zeroed in the copies, restoring the exact
  block identity.

Each recursion level copies its eight blocks to fresh contiguous storage —
the extra data movement and "complicated control structure" the paper
ascribes to this scheme, and the reason it trades more memory traffic for
the absence of fix-up passes.
"""

from __future__ import annotations

import numpy as np

from ..blas.dgemm import GemmProblem, OpKind
from ..blas.kernels import LeafKernel, get_kernel
from ..core.truncation import TruncationPolicy

__all__ = ["dgemmw", "overlap_multiply", "DEFAULT_TRUNCATION"]

#: Crossover below which the conventional kernel runs; the same order of
#: magnitude as the published GEMMW crossover and DGEFMM's 64.
DEFAULT_TRUNCATION = 64


def dgemmw(
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
    """BLAS-style dgemm via dynamic-overlap Strassen-Winograd.

    ``policy`` accepts the same forms as :func:`repro.modgemm`; it maps to
    this scheme's single recursion crossover (default 64).
    """
    point = (
        DEFAULT_TRUNCATION if policy is None
        else TruncationPolicy.coerce(policy).truncation_point()
    )
    p = GemmProblem.create(a, b, op_a=op_a, op_b=op_b, alpha=alpha, beta=beta, c=c)
    d = overlap_multiply(p.op_a_view, p.op_b_view, point, get_kernel(kernel))
    result = p.apply_scaling(d, c)
    if c is not None and result is not c:
        c[...] = result
        return c
    return result


def overlap_multiply(
    a: np.ndarray,
    b: np.ndarray,
    truncation: int = DEFAULT_TRUNCATION,
    kernel: "LeafKernel | None" = None,
) -> np.ndarray:
    """``D = A . B`` with overlapping ceil-half decomposition of odd sizes."""
    if truncation < 1:
        raise ValueError(f"truncation must be >= 1, got {truncation}")
    if kernel is None:
        kernel = get_kernel("numpy")
    m, k = a.shape
    k2, n = b.shape
    if k != k2:
        raise ValueError(f"inner dimensions disagree: {a.shape} x {b.shape}")
    return _multiply(np.asarray(a, dtype=np.float64),
                     np.asarray(b, dtype=np.float64), truncation, kernel)


def _multiply(a: np.ndarray, b: np.ndarray, truncation: int, kernel) -> np.ndarray:
    m, k = a.shape
    n = b.shape[1]
    if min(m, k, n) <= truncation:
        d = np.empty((m, n), dtype=np.float64, order="F")
        kernel(a, b, d, accumulate=False)
        return d

    mh, kh, nh = (m + 1) // 2, (k + 1) // 2, (n + 1) // 2

    # Contiguous block copies.  The second k-blocks of A start at k - kh:
    # for odd k that duplicates column kh-1, whose copy is zeroed so the
    # shared index contributes exactly once across A1.B1 + A2.B2.
    a11 = np.asfortranarray(a[:mh, :kh])
    a12 = np.asfortranarray(a[:mh, k - kh :])
    a21 = np.asfortranarray(a[m - mh :, :kh])
    a22 = np.asfortranarray(a[m - mh :, k - kh :])
    if k % 2 == 1:
        a12[:, 0] = 0.0
        a22[:, 0] = 0.0
    b11 = np.asfortranarray(b[:kh, :nh])
    b12 = np.asfortranarray(b[:kh, n - nh :])
    b21 = np.asfortranarray(b[k - kh :, :nh])
    b22 = np.asfortranarray(b[k - kh :, n - nh :])

    # Winograd's 7 products / 15 additions over the (possibly overlapping)
    # half-size blocks; products recurse.
    s1 = a21 + a22
    s2 = s1 - a11
    s3 = a11 - a21
    s4 = a12 - s2
    t1 = b12 - b11
    t2 = b22 - t1
    t3 = b22 - b12
    t4 = b21 - t2
    p1 = _multiply(a11, b11, truncation, kernel)
    p2 = _multiply(a12, b21, truncation, kernel)
    p3 = _multiply(s1, t1, truncation, kernel)
    p4 = _multiply(s2, t2, truncation, kernel)
    p5 = _multiply(s3, t3, truncation, kernel)
    p6 = _multiply(s4, b22, truncation, kernel)
    p7 = _multiply(a22, t4, truncation, kernel)

    u2 = p1 + p4
    u3 = u2 + p5
    c11 = p1 + p2
    c21 = u3 + p7
    c22 = u3 + p3
    c12 = (u2 + p3) + p6

    # Reassemble; overlapped strips of C were computed identically in both
    # halves, so plain overwrite discards one copy.
    d = np.empty((m, n), dtype=np.float64, order="F")
    d[:mh, :nh] = c11
    d[:mh, n - nh :] = c12
    d[m - mh :, :nh] = c21
    d[m - mh :, n - nh :] = c22
    return d

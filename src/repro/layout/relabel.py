"""Copy-free Morton transposition by quadrant relabeling.

The transpose of a quadtree-decomposed matrix is the same quadtree with
the off-diagonal children swapped and every child transposed::

    (X^T)11 = (X11)^T   (X^T)12 = (X21)^T
    (X^T)21 = (X12)^T   (X^T)22 = (X22)^T

Because a Morton buffer stores each quadrant contiguously, that identity
needs *no data movement at any level*: an ``op(A)`` operand keeps its
buffer in native orientation, and the recursion descends it in quadrant
order :data:`RELABEL_ORDER` — the stored (11, 21, 12, 22) quarters serve
as op-geometry (11, 12, 21, 22) — bottoming out in leaf tiles read
through swapped strides, so BLAS handles the orientation.
:class:`TransposedView` is the one wrapper object that marks such an
operand; the Winograd additions (flat ufuncs over whole quadrant buffers)
are untouched, since a flat add over a relabeled operand adds exactly the
same logical element pairs, just enumerated in the base matrix's Morton
permutation.

The one subtlety is *mixing* permutations: an S-intermediate computed
from relabeled quadrants inherits the base (native) Morton permutation,
so the scratch that receives it must be descended in the same order.
The step-table executor (:meth:`repro.core.winograd.StepTable.execute`)
therefore keys the order on the slot's operand kind: A quadrants and the
A-shaped ``S`` scratch follow A's order, B quadrants and ``T`` follow
B's, and products always descend in :data:`PLAIN_ORDER`.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "TransposedView",
    "transposed_view",
    "PLAIN_ORDER",
    "RELABEL_ORDER",
    "quadrant_slices",
]

#: Stored quarter of each op-geometry quadrant (11, 12, 21, 22) of a
#: plain Morton buffer, and of a relabeled (transposed) one.
PLAIN_ORDER = (0, 1, 2, 3)
RELABEL_ORDER = (0, 2, 1, 3)


def quadrant_slices(buf: np.ndarray, relabeled: bool = False) -> tuple:
    """The four op-geometry quadrants (11, 12, 21, 22) of a Morton buffer.

    Zero-copy slices of the last axis, so a ``(B, elems)`` batch stack
    yields ``(B, elems / 4)`` column slices.  ``relabeled`` descends a
    transposed operand in :data:`RELABEL_ORDER`.
    """
    q = buf.shape[-1] // 4
    return tuple(
        buf[..., i * q : (i + 1) * q]
        for i in (RELABEL_ORDER if relabeled else PLAIN_ORDER)
    )


class TransposedView:
    """Zero-copy logical transpose of a (possibly stacked) Morton matrix.

    Presents the transposed geometry — swapped ``rows``/``cols``/
    ``tile_r``/``tile_c``, forwarded ``buf``/``size``/``depth`` — plus
    the ``transposed`` marker the step-table executor keys its relabeled
    descent on.
    """

    __slots__ = ("base",)

    #: Marker checked via ``getattr(x, "transposed", False)`` at sites
    #: that must not pay an isinstance import.
    transposed = True

    def __init__(self, base) -> None:
        self.base = base

    @property
    def buf(self) -> np.ndarray:
        return self.base.buf

    @property
    def rows(self) -> int:
        return self.base.cols

    @property
    def cols(self) -> int:
        return self.base.rows

    @property
    def tile_r(self) -> int:
        return self.base.tile_c

    @property
    def tile_c(self) -> int:
        return self.base.tile_r

    @property
    def depth(self) -> int:
        return self.base.depth

    @property
    def size(self) -> int:
        return self.base.size

    @property
    def padded_rows(self) -> int:
        return self.base.padded_cols

    @property
    def padded_cols(self) -> int:
        return self.base.padded_rows

    @property
    def shape(self) -> tuple[int, int]:
        return (self.base.cols, self.base.rows)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TransposedView({self.base!r})"


def transposed_view(mm):
    """The logical transpose of ``mm``, with no data movement.

    Transposing a :class:`TransposedView` unwraps it back to the base.
    """
    if getattr(mm, "transposed", False):
        return mm.base
    return TransposedView(mm)

"""The Morton-ordered matrix container.

A :class:`MortonMatrix` owns (or views) a flat float buffer holding the
padded matrix in the layout of the paper's Figure 1: quadrants in NW, NE,
SW, SE order recursively, with ``tile_r x tile_c`` column-major leaf tiles.

The crucial structural property — the reason the whole design works — is
that *every quadrant at every recursion level occupies a contiguous slice of
the buffer*.  ``quadrant()`` therefore returns a zero-copy view, Winograd's
matrix additions reduce to 1-D vector operations on whole buffers, and leaf
tiles are contiguous no matter which tile size the truncation search picked.

The same property makes a *batch* of same-geometry problems stackable:
a stacked :class:`MortonMatrix` holds ``batch`` Morton images as the rows
of one ``(batch, padded_elems)`` buffer.  Every quadrant of the stack is
then a ``(batch, quarter)`` column slice whose rows stay contiguous, so
the Winograd additions remain single ufunc calls — now over the whole
batch — and the stacked leaf tiles form a ``(batch, T, T)`` array that
one batched ``np.matmul`` multiplies in a single call.  The step-table
executor (:meth:`repro.core.winograd.StepTable.execute`) takes those
slices and views straight from the raw buffers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .padding import TileRange, Tiling

__all__ = ["MortonMatrix", "staggered_buffer"]

#: Base-address offset between sibling staggered allocations, in bytes:
#: an odd multiple of the 64-byte cache line (65 lines), so that buffers
#: whose mmap bases happen to land cache-congruent are shifted apart by
#: an amount that is non-zero modulo every power-of-two cache size up to
#: 2 MiB.  This is the paper's Section 4 conflict phenomenon applied to
#: sibling buffers rather than quadrants: batch stacks are large
#: power-of-two-multiple allocations, so without the stagger the same
#: item's A/B/C rows (and workspace rows) can alias in every cache level.
STAGGER_BYTES = 65 * 64


def staggered_buffer(shape: tuple, dtype, stagger: int = 0) -> np.ndarray:
    """Allocate a C-contiguous array offset by ``stagger * STAGGER_BYTES``.

    The returned array is a view into a slightly larger allocation (kept
    alive through ``.base``) whose start is shifted by the stagger index —
    give sibling buffers distinct indices and their base addresses can
    never be mutually cache-set-congruent, whatever the allocator does.
    ``stagger=0`` is a plain ``np.empty``.
    """
    dt = np.dtype(dtype)
    offset = stagger * STAGGER_BYTES // dt.itemsize
    if offset == 0:
        return np.empty(shape, dtype=dt)
    n = 1
    for dim in shape:
        n *= dim
    return np.empty(n + offset, dtype=dt)[offset : offset + n].reshape(shape)


@dataclass
class MortonMatrix:
    """A (possibly padded) matrix stored in Morton order.

    Attributes
    ----------
    buf:
        Flat float64 array of length ``padded_rows * padded_cols``.  May be
        a view into a larger buffer (quadrants are such views).  A *stack*
        of same-geometry matrices has a ``(batch, padded_rows *
        padded_cols)`` buffer, one item per row (:attr:`batch`,
        :meth:`item`); the single-matrix methods reject stacks.
    rows, cols:
        Logical (unpadded) dimensions.  The padded region, when present,
        holds zeros so that redundant arithmetic on it is harmless
        (Section 3.5: "we explicitly padded out the matrix with zeros and
        performed redundant computation on the pad").
    tile_r, tile_c:
        Leaf tile edges chosen by the truncation-point search.
    depth:
        Recursion depth; the padded matrix is ``tile_r * 2**depth`` by
        ``tile_c * 2**depth``.
    """

    buf: np.ndarray
    rows: int
    cols: int
    tile_r: int
    tile_c: int
    depth: int

    # ---------------------------------------------------------------- shape

    @property
    def padded_rows(self) -> int:
        return self.tile_r << self.depth

    @property
    def padded_cols(self) -> int:
        return self.tile_c << self.depth

    @property
    def shape(self) -> tuple[int, int]:
        """Logical (unpadded) shape."""
        return (self.rows, self.cols)

    @property
    def size(self) -> int:
        """Buffer length (padded element count) of one item."""
        return self.padded_rows * self.padded_cols

    @property
    def batch(self) -> int | None:
        """Number of stacked items, or ``None`` for a single matrix."""
        return self.buf.shape[0] if self.buf.ndim == 2 else None

    def __post_init__(self) -> None:
        if self.buf.ndim not in (1, 2):
            raise ValueError("MortonMatrix buffer must be 1-D, or 2-D for a stack")
        if self.buf.shape[-1] != self.size:
            raise ValueError(
                f"buffer has {self.buf.shape[-1]} elements per item; tiling "
                f"({self.tile_r}x{self.tile_c}, depth {self.depth}) needs {self.size}"
            )
        if not (0 < self.rows <= self.padded_rows):
            raise ValueError(f"rows={self.rows} not in (0, {self.padded_rows}]")
        if not (0 < self.cols <= self.padded_cols):
            raise ValueError(f"cols={self.cols} not in (0, {self.padded_cols}]")

    def _single(self, what: str) -> None:
        """Reject a stack where one matrix is meant."""
        if self.buf.ndim != 1:
            raise ValueError(
                f"{what} needs a single Morton matrix, not a stack of "
                f"{self.batch}; take item(i) first"
            )

    # ------------------------------------------------------------ factories

    @classmethod
    def empty(
        cls, rows: int, cols: int, tiling_r: Tiling, tiling_c: Tiling,
        dtype=np.float64, cap: int | None = None, stagger: int = 0,
    ) -> "MortonMatrix":
        """Uninitialised Morton matrix for the given per-dimension tilings.

        ``cap`` makes it a stack of ``cap`` items; ``stagger`` offsets its
        buffer (:func:`staggered_buffer`).
        """
        if tiling_r.depth != tiling_c.depth:
            raise ValueError(
                f"row depth {tiling_r.depth} != column depth {tiling_c.depth}; "
                "use layout.padding.select_common_tiling"
            )
        size = tiling_r.padded * tiling_c.padded
        return cls(
            buf=staggered_buffer(
                (size,) if cap is None else (cap, size), dtype, stagger
            ),
            rows=rows,
            cols=cols,
            tile_r=tiling_r.tile,
            tile_c=tiling_c.tile,
            depth=tiling_r.depth,
        )

    @classmethod
    def zeros(
        cls, rows: int, cols: int, tiling_r: Tiling, tiling_c: Tiling,
        dtype=np.float64, cap: int | None = None, stagger: int = 0,
    ) -> "MortonMatrix":
        out = cls.empty(rows, cols, tiling_r, tiling_c, dtype, cap, stagger)
        out.buf[...] = 0.0
        return out

    @classmethod
    def from_dense(
        cls,
        a: np.ndarray,
        tile_range: TileRange = TileRange(),
        transpose: bool = False,
        tilings: tuple[Tiling, Tiling] | None = None,
    ) -> "MortonMatrix":
        """Convert a dense 2-D array to Morton order (interface-level copy).

        ``transpose=True`` fuses the transposition into the conversion, as
        Section 3.5 prescribes for handling the BLAS ``op(X)`` parameter
        with a single core routine.  ``tilings`` overrides the per-dimension
        truncation search (needed when a GEMM imposes a common depth).
        """
        from .convert import dense_to_morton  # local import to avoid cycle

        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2:
            raise ValueError(f"expected a 2-D array, got ndim={a.ndim}")
        rows, cols = (a.shape[1], a.shape[0]) if transpose else a.shape
        if tilings is None:
            from .padding import Tiling, select_common_tiling

            found = select_common_tiling((rows, cols), tile_range)
            if found is None:
                # Extreme aspect ratio (> the tile range's span): no common
                # recursion depth exists.  For a standalone conversion store
                # the matrix as one degenerate leaf tile — depth-0 Morton
                # order coincides with plain column-major.  (A GEMM instead
                # splits such operands into panels; see core.rectangular.)
                found = (
                    Tiling(n=rows, tile=rows, depth=0),
                    Tiling(n=cols, tile=cols, depth=0),
                )
            tilings = found
        out = cls.empty(rows, cols, tilings[0], tilings[1])
        dense_to_morton(a, out, transpose=transpose)
        return out

    def to_dense(self) -> np.ndarray:
        """Copy back to a dense (logical-shape, Fortran-order) array."""
        from .convert import morton_to_dense

        return morton_to_dense(self)

    def copy(self) -> "MortonMatrix":
        """Deep copy with an owned buffer."""
        return MortonMatrix(
            buf=self.buf.copy(),
            rows=self.rows,
            cols=self.cols,
            tile_r=self.tile_r,
            tile_c=self.tile_c,
            depth=self.depth,
        )

    # ------------------------------------------------------------ structure

    def item(self, i: int) -> "MortonMatrix":
        """Item ``i`` of a stack: a single-matrix view of buffer row ``i``."""
        if self.buf.ndim != 2:
            raise ValueError("item() needs a stacked Morton matrix")
        return MortonMatrix(
            buf=self.buf[i],
            rows=self.rows,
            cols=self.cols,
            tile_r=self.tile_r,
            tile_c=self.tile_c,
            depth=self.depth,
        )

    def quadrant(self, qr: int, qc: int) -> "MortonMatrix":
        """Zero-copy view of quadrant ``(qr, qc)`` (0=N/W, 1=S/E).

        Quadrants of a padded matrix are always "full": their logical size
        equals their padded size except that the original logical boundary
        is *not* tracked below the top level — by construction the pad holds
        zeros and participates harmlessly in the arithmetic, so recursion
        levels treat quadrants as dense.
        """
        self._single("quadrant()")
        if self.depth == 0:
            raise ValueError("a leaf tile has no quadrants")
        if qr not in (0, 1) or qc not in (0, 1):
            raise ValueError(f"quadrant indices must be 0 or 1, got ({qr}, {qc})")
        quarter = self.size // 4
        z = (qr << 1) | qc  # NW, NE, SW, SE
        sub = self.buf[z * quarter : (z + 1) * quarter]
        return MortonMatrix(
            buf=sub,
            rows=self.padded_rows // 2,
            cols=self.padded_cols // 2,
            tile_r=self.tile_r,
            tile_c=self.tile_c,
            depth=self.depth - 1,
        )

    def quadrants(self) -> tuple["MortonMatrix", ...]:
        """All four quadrant views in (11, 12, 21, 22) paper numbering."""
        return (
            self.quadrant(0, 0),
            self.quadrant(0, 1),
            self.quadrant(1, 0),
            self.quadrant(1, 1),
        )

    def leaf_view(self) -> np.ndarray:
        """2-D Fortran-order view of a leaf tile (depth must be 0)."""
        self._single("leaf_view()")
        if self.depth != 0:
            raise ValueError(f"leaf_view requires depth 0, got {self.depth}")
        return self.buf.reshape(self.tile_c, self.tile_r).T

    def pad_is_zero(self) -> bool:
        """True iff every buffer element outside the logical region is 0.

        Holds for freshly *converted* matrices (the conversion zero-fills
        the pad, Section 3.5).  It does **not** generally hold for the
        outputs of the Winograd recursion: the schedule's intermediates
        (e.g. ``T1 = B12 - B11``) are nonzero at pad positions, and the
        redundant pad arithmetic cancels only up to roundoff.  The residue
        is discarded by ``to_dense()``.
        """
        from .tiles import iter_tiles

        self._single("pad_is_zero()")
        tr, tc = self.tile_r, self.tile_c
        tile_elems = tr * tc
        for t in iter_tiles(self.depth, tr, tc):
            r1 = min(t.row0 + tr, self.rows)
            c1 = min(t.col0 + tc, self.cols)
            tile2d = self.buf[t.offset : t.offset + tile_elems].reshape(tc, tr).T
            if r1 <= t.row0 or c1 <= t.col0:
                if np.any(tile2d != 0.0):
                    return False
                continue
            rr, cc = r1 - t.row0, c1 - t.col0
            if rr < tr and np.any(tile2d[rr:, :] != 0.0):
                return False
            if cc < tc and np.any(tile2d[:, cc:] != 0.0):
                return False
        return True

    # ---------------------------------------------------------- convenience

    def __getitem__(self, idx) -> float:
        """Element access by logical (row, col) — for tests and debugging."""
        from .morton import element_offsets

        self._single("element access")
        i, j = idx
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"({i}, {j}) outside logical shape {self.shape}")
        return float(
            self.buf[element_offsets(i, j, self.tile_r, self.tile_c, self.depth)]
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        stack = "" if self.batch is None else f"batch={self.batch}, "
        return (
            f"MortonMatrix({stack}{self.rows}x{self.cols}, padded "
            f"{self.padded_rows}x{self.padded_cols}, tile "
            f"{self.tile_r}x{self.tile_c}, depth {self.depth})"
        )

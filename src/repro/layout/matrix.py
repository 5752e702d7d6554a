"""The Morton-ordered matrix container.

A :class:`MortonMatrix` owns (or views) a flat float buffer holding the
padded matrix in the layout of the paper's Figure 1: quadrants in NW, NE,
SW, SE order recursively, with ``tile_r x tile_c`` column-major leaf tiles.

The crucial structural property — the reason the whole design works — is
that *every quadrant at every recursion level occupies a contiguous slice of
the buffer*.  ``quadrant()`` therefore returns a zero-copy view, Winograd's
matrix additions reduce to 1-D vector operations on whole buffers, and leaf
tiles are contiguous no matter which tile size the truncation search picked.

The same property makes a *batch* of same-geometry problems stackable
without giving it up.  A stack of ``n`` items is one flat buffer in
Morton order whose leaf positions each hold the ``n`` items' tiles back
to back: item ``i``'s tile at leaf ``l`` starts at ``(l * n + i) * T``
(``T = tile_r * tile_c``).  Every quadrant of the stack at every level is
then one contiguous range holding all ``n`` items' parts, so each
Winograd addition is still a single 1-D ufunc — now over the whole batch
— and each leaf site is one contiguous ``(n, tile_c, tile_r)`` stack that
one batched ``np.matmul`` multiplies.  A single matrix is the ``n = 1``
case of the same layout, bit for bit.  A stacked :class:`MortonMatrix`
(``batch`` set) holds room for ``batch`` items; a call with ``n <=
batch`` items interleaves them by ``n`` over the buffer's first ``n *
size`` elements, so pad positions move with ``n``.  The step-table
executor (:meth:`repro.core.winograd.StepTable.execute`) takes its
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
        Flat float64 array of length ``padded_rows * padded_cols`` (times
        ``batch`` for a stack).  May be a view into a larger buffer
        (quadrants are such views).
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
    batch:
        ``None`` for a single matrix; for a *stack*, the number of
        same-geometry items its buffer has room for.  A call with ``n``
        items interleaves them by ``n`` over the first ``n * size``
        elements (see the module docstring); :meth:`item` copies one item
        out, and the single-matrix methods reject stacks.
    """

    buf: np.ndarray
    rows: int
    cols: int
    tile_r: int
    tile_c: int
    depth: int
    batch: int | None = None

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

    def __post_init__(self) -> None:
        if self.buf.ndim != 1:
            raise ValueError("MortonMatrix buffer must be 1-D")
        if self.batch is not None and self.batch < 1:
            raise ValueError(f"a stack needs batch >= 1, got {self.batch}")
        if self.buf.size != self.size * (self.batch or 1):
            stack = "" if self.batch is None else f" x {self.batch} items"
            raise ValueError(
                f"buffer has {self.buf.size} elements; tiling "
                f"({self.tile_r}x{self.tile_c}, depth {self.depth}){stack} "
                f"needs {self.size * (self.batch or 1)}"
            )
        if not (0 < self.rows <= self.padded_rows):
            raise ValueError(f"rows={self.rows} not in (0, {self.padded_rows}]")
        if not (0 < self.cols <= self.padded_cols):
            raise ValueError(f"cols={self.cols} not in (0, {self.padded_cols}]")

    def _single(self, what: str) -> None:
        """Reject a stack where one matrix is meant."""
        if self.batch is not None:
            raise ValueError(
                f"{what} needs a single Morton matrix, not a stack of "
                f"{self.batch}; take item(i) first"
            )

    def tiles(self, item: int | None = None, n_items: int | None = None):
        """One matrix's leaf tiles as a ``(leaves, tile_c, tile_r)`` view.

        Slice ``l`` is the C-order transpose of the ``l``-th tile in
        Morton order (``tiles()[l].T`` is the ``tile_r x tile_c`` tile).
        A stack needs ``item``, counted among its first ``n_items`` items
        (default :attr:`batch`): that item's tiles sit ``n_items`` tiles
        apart, so the view is strided.
        """
        leaves = 1 << 2 * self.depth
        if self.batch is None:
            if item is not None:
                raise ValueError("item= needs a stacked Morton matrix")
            return self.buf.reshape(leaves, self.tile_c, self.tile_r)
        if item is None:
            self._single("tiles()")
        n = self.batch if n_items is None else n_items
        if not 0 <= item < n <= self.batch:
            raise ValueError(
                f"item {item} of {n} is outside a stack of {self.batch}"
            )
        stack = self.buf[: n * self.size]
        return stack.reshape(leaves, n, self.tile_c, self.tile_r)[:, item]

    # ------------------------------------------------------------ factories

    @classmethod
    def empty(
        cls, rows: int, cols: int, tiling_r: Tiling, tiling_c: Tiling,
        dtype=np.float64, cap: int | None = None, stagger: int = 0,
    ) -> "MortonMatrix":
        """Uninitialised Morton matrix for the given per-dimension tilings.

        ``cap`` makes it a stack with room for ``cap`` items; ``stagger``
        offsets its buffer (:func:`staggered_buffer`).
        """
        if tiling_r.depth != tiling_c.depth:
            raise ValueError(
                f"row depth {tiling_r.depth} != column depth {tiling_c.depth}; "
                "use layout.padding.select_common_tiling"
            )
        size = tiling_r.padded * tiling_c.padded
        return cls(
            buf=staggered_buffer((size * (cap or 1),), dtype, stagger),
            rows=rows,
            cols=cols,
            tile_r=tiling_r.tile,
            tile_c=tiling_c.tile,
            depth=tiling_r.depth,
            batch=cap,
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
            batch=self.batch,
        )

    # ------------------------------------------------------------ structure

    def item(self, i: int, n_items: int | None = None) -> "MortonMatrix":
        """A single-matrix *copy* of item ``i`` of a stack.

        The stack holds its first ``n_items`` items (default
        :attr:`batch`) interleaved tile by tile, so one item's elements
        are not a contiguous range and cannot be viewed as a flat buffer;
        writes to the copy do not reach the stack.
        """
        if self.batch is None:
            raise ValueError("item() needs a stacked Morton matrix")
        return MortonMatrix(
            buf=self.tiles(i, n_items).flatten(),
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

    def pad_is_zero(
        self, item: int | None = None, n_items: int | None = None
    ) -> bool:
        """True iff every buffer element outside the logical region is 0.

        Holds for freshly *converted* matrices (the conversion zero-fills
        the pad, Section 3.5).  It does **not** generally hold for the
        outputs of the Winograd recursion: the schedule's intermediates
        (e.g. ``T1 = B12 - B11``) are nonzero at pad positions, and the
        redundant pad arithmetic cancels only up to roundoff.  The residue
        is discarded by ``to_dense()``.  A stack checks ``item`` of its
        first ``n_items`` items (:meth:`tiles`).
        """
        from .tiles import iter_tiles

        if item is None:
            self._single("pad_is_zero()")
        tr, tc = self.tile_r, self.tile_c
        tiles = self.tiles(item, n_items)
        for t in iter_tiles(self.depth, tr, tc):
            r1 = min(t.row0 + tr, self.rows)
            c1 = min(t.col0 + tc, self.cols)
            tile2d = tiles[t.z].T
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

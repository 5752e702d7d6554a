"""Dynamic recursion-truncation-point selection (paper Sections 3.1, 3.4).

A Strassen recursion of depth ``d`` over leaf tiles of edge ``T`` requires
the (padded) matrix dimension to be exactly ``T * 2**d``.  With a *fixed*
``T`` the padding ``T*2**d - n`` can approach ``n`` itself (513 -> 1024 at
``T = 32``).  The paper instead selects ``T`` from a range (16..64) and the
depth ``d`` jointly so the padding is minimised; the Morton layout then
guarantees that leaf-kernel performance is insensitive to the exact ``T``
chosen, which is what makes this flexibility safe (Figure 3).

Worst-case padding for the paper's range is 15 elements per dimension for
all ``n <= 1024`` (the paper's "our worst case amount"); see the unit tests
for the exhaustive check.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "TileRange",
    "Tiling",
    "feasible_depths",
    "padded_size",
    "select_tiling",
    "select_common_tiling",
    "min_padding_curve",
    "conflict_levels",
]

def _preferred_tile(tile_range: "TileRange") -> float:
    """Tie-break target for the leaf tile edge.

    When several (tile, depth) pairs achieve the same minimal padding, we
    prefer the tile closest to the geometric midpoint of the admissible
    range — 32 for the paper's 16..64, reproducing the paper's observation
    that the padded sizes 505..512 all truncate at tile size 32
    (Section 4.2), and scaling correctly with the range in the
    geometry-scaled experiments.
    """
    return (tile_range.min_tile * tile_range.max_tile) ** 0.5


@dataclass(frozen=True)
class TileRange:
    """Inclusive range of admissible leaf-tile edges.

    The paper uses 16..64 (Figure 2).  The range must span at least a factor
    of two, otherwise some matrix sizes admit no tiling at all.  The span
    also bounds the aspect ratios that share a recursion depth: a common
    depth is guaranteed for ratios up to span/2 (i.e. 2 for the paper's
    range) and possible — depending on rounding — up to the span itself.
    """

    min_tile: int = 16
    max_tile: int = 64

    def __post_init__(self) -> None:
        if self.min_tile < 1:
            raise ValueError(f"min_tile must be >= 1, got {self.min_tile}")
        if self.max_tile < 2 * self.min_tile:
            raise ValueError(
                "max_tile must be at least 2*min_tile so that every size "
                f"admits a tiling; got [{self.min_tile}, {self.max_tile}]"
            )

    @property
    def span(self) -> float:
        return self.max_tile / self.min_tile


@dataclass(frozen=True)
class Tiling:
    """A concrete (tile edge, recursion depth) choice for one dimension."""

    n: int  #: logical (unpadded) size
    tile: int  #: leaf tile edge T
    depth: int  #: recursion depth d

    @property
    def padded(self) -> int:
        """Padded size ``n' = T * 2**d``."""
        return self.tile << self.depth

    @property
    def pad(self) -> int:
        """Number of padded elements, ``n' - n``."""
        return self.padded - self.n

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"matrix dimension must be >= 1, got {self.n}")
        if self.depth < 0:
            raise ValueError(f"depth must be >= 0, got {self.depth}")
        if self.padded < self.n:
            raise ValueError(
                f"tile {self.tile} * 2^{self.depth} = {self.padded} "
                f"cannot hold n={self.n}"
            )


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def feasible_depths(n: int, tile_range: TileRange = TileRange()) -> list[Tiling]:
    """All (tile, depth) pairs with ``ceil(n / 2**d)`` inside the tile range.

    Depth 0 is additionally feasible whenever ``n <= max_tile`` (a matrix at
    or below the truncation point is a single leaf, multiplied by the
    conventional kernel with no padding and no recursion), including tiny
    matrices below ``min_tile``.
    """
    if n < 1:
        raise ValueError(f"matrix dimension must be >= 1, got {n}")
    out: list[Tiling] = []
    if n <= tile_range.max_tile:
        out.append(Tiling(n=n, tile=n, depth=0))
    d = 1
    while True:
        t = _ceil_div(n, 1 << d)
        if t < tile_range.min_tile:
            break
        if t <= tile_range.max_tile:
            out.append(Tiling(n=n, tile=t, depth=d))
        d += 1
    return out


def conflict_levels(tiling: Tiling, cache_bytes: int, elem: int = 8) -> int:
    """Number of recursion levels with systematic quadrant conflicts.

    The Section 4.2 anomaly: with contiguous Morton quadrants, the NW and
    SW quadrant bases at level ``l`` (0 = leaves) are separated by
    ``2 * (T * 2**l)**2 * elem`` bytes.  Whenever that separation is a
    multiple of a direct-mapped cache's size, the two quadrants map to the
    same sets and every paired access conflicts.  Returns how many levels
    of ``tiling`` suffer this (0 = conflict-free).
    """
    if cache_bytes <= 0:
        raise ValueError(f"cache_bytes must be positive, got {cache_bytes}")
    count = 0
    sep = 2 * tiling.tile * tiling.tile * elem
    for _ in range(tiling.depth):
        if sep % cache_bytes == 0:
            count += 1
        sep *= 4
    return count


def _conflict_score(tiling: Tiling, cache_bytes: int, elem: int = 8) -> float:
    """Level-weighted conflict badness (leaf conflicts dominate).

    A congruent level ``l`` contributes ``2**-l``: the leaf level hosts the
    heavily-reused kernel working set, while coarser levels only see the
    streaming additions, whose conflicts cost a single extra miss per
    block.
    """
    score = 0.0
    sep = 2 * tiling.tile * tiling.tile * elem
    for level in range(tiling.depth):
        if sep % cache_bytes == 0:
            score += 2.0**-level
        sep *= 4
    return score


#: How far past the minimal tile the conflict-aware search may overpad.
#: The power-of-two regimes (505..512 -> padded 512) have no conflict-free
#: minimal-padding candidate at all — every power-of-two tile is congruent
#: at some level — so escaping them requires padding past the power of two
#: (e.g. tile 33, padded 528), exactly what sizes >= 513 get for free.
_CONFLICT_OVERPAD = 3


def select_tiling(
    n: int,
    tile_range: TileRange = TileRange(),
    cache_bytes: "int | None" = None,
) -> Tiling:
    """Choose the (tile, depth) minimising padding for one dimension.

    Ties on padding break toward the tile edge closest to the range's
    geometric midpoint, then toward the shallower recursion.  Example from
    the paper (Section 3.4): ``select_tiling(513)`` yields tile 33, depth
    4, padded size 528 (pad 15) instead of the fixed-``T=32`` padded size
    1024.

    ``cache_bytes``, when given, enables *conflict-aware* selection — the
    paper's stated future work ("we are currently examining ways to
    eliminate these conflict misses"): candidates whose quadrant layout is
    congruent modulo the cache size (see :func:`conflict_levels`) are
    avoided even at the price of extra padding, trading a few percent more
    flops for the elimination of the Section 4.2 conflict regime.
    """
    candidates = feasible_depths(n, tile_range)
    if not candidates:
        raise ValueError(
            f"no feasible tiling for n={n} with tile range "
            f"[{tile_range.min_tile}, {tile_range.max_tile}]"
        )
    if cache_bytes:
        candidates = _with_overpadded(candidates, tile_range)
    preferred = _preferred_tile(tile_range)

    def cost(t: Tiling):
        conflicts = _conflict_score(t, cache_bytes) if cache_bytes else 0.0
        return (conflicts, t.pad, abs(t.tile - preferred), t.depth)

    return min(candidates, key=cost)


def _with_overpadded(
    candidates: list[Tiling], tile_range: TileRange
) -> list[Tiling]:
    """Extend each depth's minimal tile with slightly larger alternatives."""
    out = list(candidates)
    for t in candidates:
        if t.depth == 0:
            continue
        for extra in range(1, _CONFLICT_OVERPAD + 1):
            bigger = t.tile + extra
            if bigger > tile_range.max_tile:
                break
            out.append(Tiling(n=t.n, tile=bigger, depth=t.depth))
    return out


def padded_size(n: int, tile_range: TileRange = TileRange()) -> int:
    """Minimal padded size ``n'`` for dimension ``n`` (Figure 2's 'dynamic' line)."""
    return select_tiling(n, tile_range).padded


def select_common_tiling(
    dims: tuple[int, ...],
    tile_range: TileRange = TileRange(),
    cache_bytes: "int | None" = None,
) -> tuple[Tiling, ...] | None:
    """Choose one recursion depth shared by all dimensions of a product.

    A GEMM ``C(m,n) = A(m,k) . B(k,n)`` halves *all three* dimensions at
    every recursion level, so m, k and n must unfold to the same depth, each
    with its own tile edge (Section 3.5).  Returns ``None`` when no common
    depth exists (the highly-rectangular case of Section 3.5, e.g.
    2048 x 256, or unlucky in-between ratios like 100 x 399);
    :mod:`repro.core.rectangular` then splits the operands into
    well-behaved panels first.  Note that the paper's own 1024 x 256
    example *is* jointly feasible (depth 4, tiles 64 and 16) — the paper
    discusses it under independent per-dimension selection at T=32.

    The selected depth minimises the total padding across the dimensions,
    with the same tie-breaks (and the same optional conflict-awareness)
    as :func:`select_tiling`.
    """
    if not dims:
        raise ValueError("dims must be non-empty")
    preferred = _preferred_tile(tile_range)

    def tile_key(t: Tiling):
        conflicts = _conflict_score(t, cache_bytes) if cache_bytes else 0.0
        return (conflicts, t.pad, abs(t.tile - preferred))

    # Per dimension and per depth, keep only the best tile choice (the
    # minimal one, or — conflict-aware — possibly a slightly overpadded
    # alternative that breaks the cache congruence).
    per_dim: list[dict[int, Tiling]] = []
    for n in dims:
        candidates = feasible_depths(n, tile_range)
        if cache_bytes:
            candidates = _with_overpadded(candidates, tile_range)
        by_depth: dict[int, Tiling] = {}
        for t in candidates:
            cur = by_depth.get(t.depth)
            if cur is None or tile_key(t) < tile_key(cur):
                by_depth[t.depth] = t
        per_dim.append(by_depth)

    common = set(per_dim[0])
    for options in per_dim[1:]:
        common &= set(options)
    if not common:
        return None

    def cost(d: int):
        ts = [options[d] for options in per_dim]
        conflicts = (
            sum(_conflict_score(t, cache_bytes) for t in ts) if cache_bytes else 0.0
        )
        return (
            conflicts,
            sum(t.pad for t in ts),
            sum(abs(t.tile - preferred) for t in ts),
            d,
        )

    best = min(common, key=cost)
    return tuple(options[best] for options in per_dim)


def min_padding_curve(
    sizes, tile_range: TileRange = TileRange()
) -> list[tuple[int, int, int]]:
    """``(n, padded_n, tile)`` rows for Figure 2's dynamic-selection lines."""
    rows = []
    for n in sizes:
        t = select_tiling(int(n), tile_range)
        rows.append((int(n), t.padded, t.tile))
    return rows

"""Figure 2 — effect of tile-size selection on padding.

Four quantities versus the matrix size ``n``: the original size itself,
the padded size under dynamic tile selection from 16..64, the padded size
under a fixed tile ``T = 32``, and the dynamically selected tile.  This is
a purely arithmetic experiment — the reproduction is exact, including the
paper's worked example 513 -> 528 (tile 33, depth 4) versus 1024 fixed.
"""

from __future__ import annotations

from typing import Iterable

from ..core.truncation import TruncationPolicy
from ..layout.padding import TileRange, select_tiling
from .runner import ExperimentResult

__all__ = ["run"]


def run(
    sizes: "Iterable[int] | None" = None,
    tile_range: TileRange = TileRange(),
    fixed_tile: int = 32,
) -> ExperimentResult:
    """Padding table across sizes: dynamic vs fixed tile selection."""
    if sizes is None:
        sizes = range(16, 1101)
    fixed = TruncationPolicy.fixed(fixed_tile)
    rows = []
    for n in sizes:
        n = int(n)
        dyn = select_tiling(n, tile_range)
        fx = fixed.plan(n, n, n)
        assert fx is not None
        rows.append((n, n, dyn.padded, fx[0].padded, dyn.tile))
    return ExperimentResult(
        name="fig2",
        title="Effect of tile size on padding",
        columns=(
            "n", "original", "padded_dynamic", f"padded_fixed{fixed_tile}",
            "tile_dynamic",
        ),
        rows=rows,
        notes=(
            f"Dynamic tile selection from [{tile_range.min_tile}, "
            f"{tile_range.max_tile}] keeps padding bounded by a small "
            "constant; a fixed tile pads proportionally to n in the worst "
            "case (513 -> 1024)."
        ),
        chart={
            "original n": ("n", "original"),
            "padded (dynamic T)": ("n", "padded_dynamic"),
            f"padded (fixed T={fixed_tile})": ("n", f"padded_fixed{fixed_tile}"),
            "tile chosen": ("n", "tile_dynamic"),
        },
        x_label="matrix size n",
        y_label="elements",
    )

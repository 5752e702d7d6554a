"""Extension experiment — per-structure miss attribution (CProf's role).

The paper's Section 4.2 analysis pinpoints *which* structures conflict:
"since the NW and SW quadrants are separated by the NE quadrant, they map
to the same locations in cache ... any operations involving these two
quadrants will incur a significant number of cache misses."  CProf is the
tool that produced that insight; this experiment reproduces it with
:class:`repro.cachesim.classify.RegionMap`: every access of a full MODGEMM
trace is attributed to a named structure (operand quadrants ``A.NW`` ...
``C.SE``, workspace levels, dense interface arrays), and the per-region
miss ratios are reported for a conflicting size and its conflict-free
neighbour.
"""

from __future__ import annotations

import math

from ..cachesim.classify import RegionMap
from ..cachesim.machines import ATOM_EXPERIMENT, scale_machine
from ..cachesim.trace import TraceCollector
from ..cachesim.tracegen import modgemm_trace
from ..cachesim.vectorized import DirectMappedCache
from ..layout.padding import TileRange, select_common_tiling
from .runner import ExperimentResult

__all__ = ["run"]


def run(
    scale: int = 16, before: "int | None" = None, after: "int | None" = None,
) -> ExperimentResult:
    """Per-region miss ratios at a conflicting size vs its clean neighbour."""
    dim_scale = math.isqrt(scale)
    if dim_scale * dim_scale != scale:
        raise ValueError(f"scale must be a perfect square, got {scale}")
    machine = scale_machine(ATOM_EXPERIMENT, scale)
    config = machine.levels[0]
    tile_range = TileRange(16 // dim_scale, 64 // dim_scale)
    if before is None:
        before = 512 // dim_scale  # the conflicting regime
    if after is None:
        after = -(-513 // dim_scale)  # the clean regime

    rows = []
    for n in (before, after):
        plan = select_common_tiling((n, n, n), tile_range)
        assert plan is not None
        regions = RegionMap()
        coll = TraceCollector()
        modgemm_trace(plan, coll, regions=regions)
        trace = coll.concatenate()
        dm = DirectMappedCache(config)
        miss_mask = dm.access(trace, return_mask=True)
        for name, (accesses, misses) in sorted(
            regions.attribute(trace, miss_mask).items()
        ):
            if accesses == 0:
                continue
            rows.append(
                (
                    n * dim_scale,
                    plan[0].tile,
                    name,
                    accesses,
                    misses,
                    100.0 * misses / accesses,
                )
            )
    return ExperimentResult(
        name="ext-attribution",
        title="Per-structure miss attribution (Section 4.2's quadrant diagnosis)",
        columns=("n_paper", "tile", "region", "accesses", "misses", "miss_pct"),
        rows=rows,
        notes=(
            "At the conflicting (power-of-two padded) size, every operand "
            "quadrant runs hot because NW/SW pairs alias in the cache; at "
            "the clean neighbour the same regions cool down together.  "
            "Workspace regions (ws0 = the largest scratch level) show the "
            "same contrast."
        ),
    )

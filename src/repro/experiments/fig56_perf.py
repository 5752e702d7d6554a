"""Figures 5 & 6 — execution time of the three implementations.

Both figures plot execution time normalised to DGEFMM (dynamic peeling)
across matrix sizes 150..1024, alpha=1, beta=0; Figure 5 on the DEC Alpha,
Figure 6 on the Sun Ultra 60.  Panel (a) is MODGEMM/DGEFMM, panel (b)
DGEMMW/DGEFMM.

Two modes reproduce them here (see DESIGN.md substitutions):

* :func:`run_measured` — wall-clock on the host under the paper's timing
  protocol.  The host plays the role of one platform.
* :func:`run_modeled` — the address traces of all three implementations
  through a geometry-scaled simulation of the Alpha or Ultra hierarchy
  plus the linear time model; matrix dimensions scale with the square
  root of the byte-scale factor so every cache-congruence is preserved.
  This supplies the cross-platform axis the paper's hardware provided.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from ..analysis.timing import TimingProtocol
from ..baselines.dgefmm import dgefmm
from ..baselines.dgemmw import dgemmw
from ..cachesim.machines import MACHINES, Machine, scale_machine
from ..cachesim.timemodel import TimingModel
from ..cachesim.trace import SimulatorSink
from ..cachesim.tracegen import dgefmm_trace, dgemmw_trace, modgemm_trace
from ..core.modgemm import modgemm
from ..core.truncation import TruncationPolicy
from ..layout.padding import TileRange, select_common_tiling
from .runner import ExperimentResult

__all__ = ["run_measured", "run_modeled", "default_sizes"]


def default_sizes(step: int = 50) -> list[int]:
    """The paper's 150..1024 sweep, including the interesting 500s."""
    sizes = sorted(set(list(range(150, 1025, step)) + [500, 512, 513, 528, 1024]))
    return sizes


def _norm_rows(sizes, times: dict[str, list[float]]):
    rows = []
    for i, n in enumerate(sizes):
        t_mod = times["modgemm"][i]
        t_dge = times["dgefmm"][i]
        t_gw = times["dgemmw"][i]
        rows.append(
            (n, t_mod, t_dge, t_gw, t_mod / t_dge, t_gw / t_dge)
        )
    return rows


_COLUMNS = (
    "n",
    "t_modgemm",
    "t_dgefmm",
    "t_dgemmw",
    "modgemm/dgefmm",
    "dgemmw/dgefmm",
)

_CHART = {
    "MODGEMM / DGEFMM": ("n", "modgemm/dgefmm"),
    "DGEMMW / DGEFMM": ("n", "dgemmw/dgefmm"),
}


def run_measured(
    sizes: "Iterable[int] | None" = None,
    protocol: TimingProtocol | None = None,
    seed: int = 0,
    policy: "TruncationPolicy | None" = None,
    dgefmm_truncation: "int | None" = None,
    dgemmw_truncation: "int | None" = None,
) -> ExperimentResult:
    """Wall-clock comparison on the host (alpha=1, beta=0).

    Truncation parameters default to the host-tuned values of
    :mod:`repro.experiments.tuning`, mirroring the paper's use of
    empirically determined truncation points per machine.
    """
    from .tuning import HOST_DGEFMM_TRUNCATION, HOST_DGEMMW_TRUNCATION, HOST_POLICY

    if sizes is None:
        sizes = default_sizes()
    sizes = [int(n) for n in sizes]
    protocol = protocol or TimingProtocol()
    policy = policy or HOST_POLICY
    t_dge = dgefmm_truncation or HOST_DGEFMM_TRUNCATION
    t_gw = dgemmw_truncation or HOST_DGEMMW_TRUNCATION
    rng = np.random.default_rng(seed)
    times: dict[str, list[float]] = {"modgemm": [], "dgefmm": [], "dgemmw": []}
    for n in sizes:
        a = np.asfortranarray(rng.standard_normal((n, n)))
        b = np.asfortranarray(rng.standard_normal((n, n)))
        times["modgemm"].append(
            protocol.run(lambda: modgemm(a, b, policy=policy), n)
        )
        times["dgefmm"].append(
            protocol.run(lambda: dgefmm(a, b, policy=t_dge), n)
        )
        times["dgemmw"].append(
            protocol.run(lambda: dgemmw(a, b, policy=t_gw), n)
        )
    return ExperimentResult(
        name="fig5_6_measured",
        title=(
            "Strassen-Winograd implementations, host wall-clock "
            "(normalised to DGEFMM)"
        ),
        columns=_COLUMNS,
        rows=_norm_rows(sizes, times),
        notes=(
            "Paper protocol: avg of 10 invocations below size 500, min of "
            "3 experiments.  Values < 1 mean faster than DGEFMM."
        ),
        chart=_CHART,
        x_label="matrix size n",
        y_label="time / DGEFMM",
    )


def run_modeled(
    machine: "str | Machine" = "alpha",
    sizes: "Iterable[int] | None" = None,
    scale: int = 16,
) -> ExperimentResult:
    """Cache-model comparison on a scaled Alpha/Ultra hierarchy.

    ``scale`` divides every cache capacity; matrix dimensions, tile range
    and truncation points divide by ``sqrt(scale)`` so buffer footprints
    shrink in step and all cache-size congruences survive.
    """
    m = MACHINES[machine] if isinstance(machine, str) else machine
    if sizes is None:
        sizes = default_sizes()
    sizes = [int(n) for n in sizes]
    dim_scale = math.isqrt(scale)
    if dim_scale * dim_scale != scale:
        raise ValueError(f"scale must be a perfect square, got {scale}")
    scaled = scale_machine(m, scale)
    tile_range = TileRange(
        max(2, 16 // dim_scale), max(4, 64 // dim_scale)
    )
    trunc = max(4, 64 // dim_scale)
    model = TimingModel(scaled)

    times: dict[str, list[float]] = {"modgemm": [], "dgefmm": [], "dgemmw": []}
    used_sizes = []
    for n in sizes:
        ns = max(tile_range.max_tile + 1, -(-n // dim_scale))
        used_sizes.append(ns)
        plan = select_common_tiling((ns, ns, ns), tile_range)
        assert plan is not None

        h = model.hierarchy()
        ops = modgemm_trace(plan, SimulatorSink(h))
        times["modgemm"].append(model.run_trace(ops.flops, ops.accesses, h).seconds)

        h = model.hierarchy()
        tr = dgefmm_trace(ns, ns, ns, SimulatorSink(h), truncation=trunc)
        times["dgefmm"].append(model.run_trace(tr.flops, tr.accesses, h).seconds)

        h = model.hierarchy()
        tw = dgemmw_trace(ns, ns, ns, SimulatorSink(h), truncation=trunc)
        times["dgemmw"].append(model.run_trace(tw.flops, tw.accesses, h).seconds)

    rows = [
        (orig,) + row[1:]
        for orig, row in zip(sizes, _norm_rows(used_sizes, times))
    ]
    return ExperimentResult(
        name=f"fig{'5' if m.name.startswith('alpha') else '6'}_modeled",
        title=(
            f"Strassen-Winograd implementations, modelled on {m.name} "
            "(normalised to DGEFMM)"
        ),
        columns=_COLUMNS,
        rows=rows,
        notes=(
            f"Geometry-scaled by {scale} (dimensions by {dim_scale}); "
            "modelled seconds are for the scaled problem — only the ratios "
            "are meaningful, matching the paper's normalised presentation."
        ),
        chart=_CHART,
        x_label="matrix size n (paper scale)",
        y_label="time / DGEFMM",
    )

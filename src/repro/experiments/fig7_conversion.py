"""Figure 7 — Morton conversion time as a percentage of total execution.

The paper converts inputs to Morton order and the output back at the
interface level and measures the cost at roughly 15% of execution time for
small matrices, falling to ~5% for very large ones.  Here
:class:`repro.core.modgemm.PhaseTimings` records the same phase breakdown
under the paper's timing protocol.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..analysis.timing import TimingProtocol
from ..core.modgemm import PhaseTimings, modgemm
from ..core.truncation import TruncationPolicy
from .runner import ExperimentResult
from .fig56_perf import default_sizes

__all__ = ["run"]


def run(
    sizes: "Iterable[int] | None" = None,
    protocol: TimingProtocol | None = None,
    seed: int = 0,
    policy: "TruncationPolicy | None" = None,
) -> ExperimentResult:
    """Conversion-time share of modgemm across matrix sizes."""
    from .tuning import HOST_POLICY

    policy = policy or HOST_POLICY
    if sizes is None:
        sizes = default_sizes()
    sizes = [int(n) for n in sizes]
    protocol = protocol or TimingProtocol()
    rng = np.random.default_rng(seed)
    rows = []
    for n in sizes:
        a = np.asfortranarray(rng.standard_normal((n, n)))
        b = np.asfortranarray(rng.standard_normal((n, n)))
        # Accumulate phase times over the protocol's best trial by running
        # a fresh breakdown per invocation and keeping the fastest total.
        best: PhaseTimings | None = None
        for _ in range(protocol.trials):
            for _ in range(protocol.reps(n)):
                t = PhaseTimings()
                modgemm(a, b, policy=policy, timings=t)
                if best is None or t.total < best.total:
                    best = t
        assert best is not None
        rows.append(
            (
                n,
                best.to_morton,
                best.compute,
                best.from_morton,
                best.total,
                100.0 * best.convert_fraction,
            )
        )
    return ExperimentResult(
        name="fig7",
        title="Morton conversion time as % of total execution",
        columns=(
            "n", "t_to_morton", "t_compute", "t_from_morton", "t_total",
            "convert_pct",
        ),
        rows=rows,
        notes=(
            "Paper: ~15% for small matrices dropping to ~5% for large ones "
            "(the conversion is O(n^2) against O(n^2.8) compute)."
        ),
        chart={"conversion %": ("n", "convert_pct")},
        x_label="matrix size n",
        y_label="% of total",
    )

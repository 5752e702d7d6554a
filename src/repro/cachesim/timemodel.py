"""Linear execution-time model over flop and miss counts.

``t = flops / peak + sum_l misses_l * penalty_l`` — the standard
first-order model for blocked dense kernels, used here to turn simulated
cache behaviour into the paper's "second platform" numbers (Figures 3, 5,
6 model variants).  Absolute values are *not* claims; the reproduced
quantities are ratios between implementations run through the same model.
"""

from __future__ import annotations

from dataclasses import dataclass

from .hierarchy import CacheHierarchy
from .machines import Machine

__all__ = ["TimingModel", "ModelledRun"]


@dataclass(frozen=True)
class ModelledRun:
    """Outcome of pushing one workload trace through a machine model."""

    machine: str
    flops: int
    accesses: int
    misses: tuple[int, ...]
    seconds: float

    @property
    def mflops(self) -> float:
        return self.flops / self.seconds / 1e6 if self.seconds > 0 else 0.0

    @property
    def l1_miss_ratio(self) -> float:
        return self.misses[0] / self.accesses if self.accesses else 0.0


class TimingModel:
    """Evaluate the linear model for a machine."""

    def __init__(self, machine: Machine) -> None:
        self.machine = machine

    def hierarchy(self) -> CacheHierarchy:
        """Fresh cache hierarchy with this machine's levels."""
        return CacheHierarchy(list(self.machine.levels))

    def evaluate(
        self, flops: int, accesses: int, misses: "tuple[int, ...] | list[int]"
    ) -> ModelledRun:
        """Apply the linear model to explicit flop and per-level miss counts."""
        if len(misses) != len(self.machine.miss_penalties):
            raise ValueError(
                f"{len(misses)} miss counts for "
                f"{len(self.machine.miss_penalties)} levels"
            )
        seconds = flops / self.machine.peak_flops
        for miss_count, penalty in zip(misses, self.machine.miss_penalties):
            seconds += miss_count * penalty
        return ModelledRun(
            machine=self.machine.name,
            flops=int(flops),
            accesses=int(accesses),
            misses=tuple(int(x) for x in misses),
            seconds=float(seconds),
        )

    def run_trace(
        self, flops: int, accesses: int, hierarchy: CacheHierarchy
    ) -> ModelledRun:
        """Evaluate using the miss counts a hierarchy accumulated."""
        misses = [lv.stats.misses for lv in hierarchy.levels]
        return self.evaluate(flops, accesses, misses)

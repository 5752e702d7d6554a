"""Cache geometry configuration and the set-associative LRU simulator.

The LRU simulator is the reference implementation: general (any
associativity) but per-access Python work.  The vectorised direct-mapped
engine in :mod:`repro.cachesim.vectorized` must agree with it exactly at
associativity 1 — a property the test-suite checks — and is what the large
experiments use, since the paper's analysed caches (Alpha 8 KB L1, the
16 KB ATOM configuration) are direct-mapped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CacheConfig", "CacheStats", "LRUCache"]


def _is_pow2(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


@dataclass(frozen=True)
class CacheConfig:
    """One cache level's geometry."""

    size_bytes: int
    block_bytes: int
    assoc: int = 1
    name: str = "cache"

    def __post_init__(self) -> None:
        if not _is_pow2(self.block_bytes):
            raise ValueError(
                f"block size must be a power of two, got {self.block_bytes}"
            )
        if self.size_bytes % (self.block_bytes * self.assoc) != 0:
            raise ValueError(
                f"{self.size_bytes} B / ({self.block_bytes} B x assoc {self.assoc}) "
                "does not divide into whole sets"
            )
        if not _is_pow2(self.n_sets):
            raise ValueError(
                f"set count {self.n_sets} must be a power of two for address slicing"
            )

    @property
    def n_blocks(self) -> int:
        return self.size_bytes // self.block_bytes

    @property
    def n_sets(self) -> int:
        return self.n_blocks // self.assoc

    @property
    def block_bits(self) -> int:
        return self.block_bytes.bit_length() - 1

    @property
    def set_bits(self) -> int:
        return self.n_sets.bit_length() - 1

    def split(self, addrs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised (set index, tag) decomposition of byte addresses."""
        blocks = np.asarray(addrs, dtype=np.int64) >> self.block_bits
        sets = blocks & (self.n_sets - 1)
        tags = blocks >> self.set_bits
        return sets, tags


@dataclass
class CacheStats:
    """Accumulated access/miss counts for one cache level."""

    accesses: int = 0
    misses: int = 0

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def merge(self, other: "CacheStats") -> None:
        """Accumulate another stats object into this one."""
        self.accesses += other.accesses
        self.misses += other.misses


class LRUCache:
    """Set-associative cache with true LRU replacement.

    Per-access Python cost; intended for moderate traces (the filtered
    miss streams of lower levels, unit tests, and cross-validation of the
    vectorised engine).  State persists across ``access`` calls so traces
    may be streamed in chunks.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.stats = CacheStats()
        # sets[s] is the LRU-ordered list of resident tags (MRU last).
        self._sets: list[list[int]] = [[] for _ in range(config.n_sets)]

    def reset(self) -> None:
        """Clear contents and statistics."""
        self.stats = CacheStats()
        self._sets = [[] for _ in range(self.config.n_sets)]

    def access(self, addrs: np.ndarray, return_mask: bool = True) -> np.ndarray | int:
        """Simulate byte-address accesses; returns miss mask (or count)."""
        sets, tags = self.config.split(addrs)
        assoc = self.config.assoc
        table = self._sets
        miss = np.zeros(len(sets), dtype=bool) if return_mask else None
        n_miss = 0
        for i, (s, t) in enumerate(zip(sets.tolist(), tags.tolist())):
            ways = table[s]
            try:
                ways.remove(t)
                ways.append(t)  # refresh to MRU
            except ValueError:
                n_miss += 1
                if miss is not None:
                    miss[i] = True
                if len(ways) >= assoc:
                    ways.pop(0)
                ways.append(t)
        self.stats.accesses += len(sets)
        self.stats.misses += n_miss
        return miss if miss is not None else n_miss

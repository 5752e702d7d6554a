"""Miss classification and attribution (the paper's CProf substitute).

Section 4.2: "Preliminary investigations using CProf reveal that this drop
is due to a reduction in conflict misses."  CProf attributed misses to
data structures and classified them; this module provides the equivalent
over our traces:

* :func:`classify_misses` — the classic **three-C** decomposition for a
  direct-mapped cache:

  - *compulsory*: the first access to a block ever;
  - *capacity*: misses a fully-associative LRU cache of the same total
    capacity would also take (the working set genuinely does not fit);
  - *conflict*: everything else — misses caused purely by the
    direct-mapped placement, i.e. the Section 4.2 quadrant phenomenon.

  The fully-associative reference is computed from exact LRU **stack
  distances** via a Fenwick (binary indexed) tree over last-access
  positions — O(log n) per access after consecutive-duplicate collapsing.

* :class:`RegionMap` — named address regions (operand A, operand B,
  product C, workspace...) so misses can be attributed to the structures
  causing them, which is how CProf pointed the paper's authors at the
  NW/SW quadrant pair.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .cache import CacheConfig
from .vectorized import DirectMappedCache

__all__ = [
    "MissClasses",
    "RegionMap",
    "classify_misses",
    "stack_distances",
    "capacity_miss_curve",
]


@dataclass(frozen=True)
class MissClasses:
    """Three-C decomposition of one trace's misses on one cache.

    ``compulsory + capacity + conflict`` equals the direct-mapped miss
    count exactly.  ``conflict`` is Hill's aggregate definition —
    direct-mapped misses minus fully-associative misses — and can be
    (rarely, slightly) negative when LRU replacement loses to the
    direct-mapped placement on a particular trace.
    """

    accesses: int
    compulsory: int
    capacity: int
    conflict: int

    @property
    def misses(self) -> int:
        return self.compulsory + self.capacity + self.conflict

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def conflict_share(self) -> float:
        """Fraction of all misses that are conflict misses."""
        return self.conflict / self.misses if self.misses else 0.0


def stack_distances(blocks: np.ndarray) -> np.ndarray:
    """Exact LRU stack distance of every access in a block-id sequence.

    The stack distance of access ``i`` to block ``b`` is the number of
    *distinct* blocks referenced since the previous access to ``b``
    (``-1`` for a first access).  An LRU cache of capacity ``C`` blocks
    hits exactly the accesses with ``0 <= distance < C`` — one pass yields
    the miss counts of every capacity at once.

    Fenwick-tree algorithm: positions of most-recent accesses are marked;
    for each access, the distance is the count of marks after the block's
    previous position, which then moves to the current position.
    O(n log n) total.
    """
    blocks = np.asarray(blocks, dtype=np.int64).ravel()
    n = blocks.shape[0]
    dist = np.empty(n, dtype=np.int64)
    if n == 0:
        return dist
    tree = np.zeros(n + 1, dtype=np.int64)  # Fenwick over positions 1..n

    def add(i: int, v: int) -> None:
        i += 1
        while i <= n:
            tree[i] += v
            i += i & (-i)

    def prefix(i: int) -> int:
        i += 1
        s = 0
        while i > 0:
            s += tree[i]
            i -= i & (-i)
        return s

    last: dict[int, int] = {}
    marked = 0
    for i, b in enumerate(blocks.tolist()):
        prev = last.get(b)
        if prev is None:
            dist[i] = -1
        else:
            # distinct blocks touched strictly after prev = marks in (prev, i)
            dist[i] = marked - prefix(prev)
            add(prev, -1)
            marked -= 1
        add(i, 1)
        marked += 1
        last[b] = i
    return dist


def capacity_miss_curve(
    addrs: np.ndarray, block_bytes: int, capacities_blocks: "list[int]"
) -> list[int]:
    """Fully-associative LRU miss counts for *every* capacity at once.

    One stack-distance pass (Mattson's classic result — the inclusion
    property makes LRU miss counts a function of the distance histogram)
    yields ``misses(C) = #compulsory + #{distance >= C}`` for all ``C``
    simultaneously.  This is the working-set analysis of the paper's
    reference [11] (Hill & Smith): where the curve knees is where a
    working set stops fitting.

    ``addrs`` are byte addresses; capacities are in blocks.
    """
    if block_bytes & (block_bytes - 1):
        raise ValueError(f"block size must be a power of two, got {block_bytes}")
    addrs = np.asarray(addrs, dtype=np.int64).ravel()
    blocks = addrs >> (block_bytes.bit_length() - 1)
    if blocks.size:
        keep = np.empty(blocks.size, dtype=bool)
        keep[0] = True
        np.not_equal(blocks[1:], blocks[:-1], out=keep[1:])
        blocks = blocks[keep]
    dist = stack_distances(blocks)
    compulsory = int(np.count_nonzero(dist < 0))
    finite = np.sort(dist[dist >= 0])
    out = []
    for cap in capacities_blocks:
        if cap < 1:
            raise ValueError(f"capacity must be >= 1 block, got {cap}")
        # finite distances >= cap miss
        idx = np.searchsorted(finite, cap, side="left")
        out.append(compulsory + int(finite.size - idx))
    return out


def _fully_associative_misses(blocks: np.ndarray, capacity: int) -> tuple[int, int]:
    """(compulsory, total misses) of a fully-associative LRU of ``capacity``.

    Equivalent to thresholding :func:`stack_distances` at ``capacity``
    (property-tested), but an order of magnitude faster: an OrderedDict is
    an O(1)-per-access LRU.
    """
    from collections import OrderedDict

    lru: OrderedDict[int, None] = OrderedDict()
    seen: set[int] = set()
    compulsory = 0
    misses = 0
    for b in blocks.tolist():
        if b in lru:
            lru.move_to_end(b)
            continue
        misses += 1
        if b not in seen:
            compulsory += 1
            seen.add(b)
        if len(lru) >= capacity:
            lru.popitem(last=False)
        lru[b] = None
    return compulsory, misses


def classify_misses(addrs: np.ndarray, config: CacheConfig) -> MissClasses:
    """Three-C decomposition of a byte-address trace on a DM cache.

    Consecutive duplicate blocks are collapsed first (guaranteed hits in
    both the direct-mapped and the fully-associative reference), keeping
    the exact access and miss counts.
    """
    if config.assoc != 1:
        raise ValueError("three-C classification here targets direct-mapped caches")
    addrs = np.asarray(addrs, dtype=np.int64).ravel()
    total = addrs.shape[0]
    if total == 0:
        return MissClasses(0, 0, 0, 0)
    blocks = addrs >> config.block_bits
    keep = np.empty(total, dtype=bool)
    keep[0] = True
    np.not_equal(blocks[1:], blocks[:-1], out=keep[1:])
    blocks = blocks[keep]

    # Direct-mapped miss count.
    dm = DirectMappedCache(config)
    dm_misses = dm.access(blocks << config.block_bits, return_mask=False)

    # Fully-associative same-capacity LRU reference.
    compulsory, fa_misses = _fully_associative_misses(blocks, config.n_blocks)

    # Hill's aggregate three-C convention: conflict misses are the excess
    # of the real (direct-mapped) miss count over the fully-associative
    # reference (occasionally negative; see MissClasses).
    capacity = fa_misses - compulsory
    conflict = int(dm_misses) - fa_misses
    return MissClasses(
        accesses=total,
        compulsory=compulsory,
        capacity=capacity,
        conflict=conflict,
    )


class RegionMap:
    """Named, non-overlapping address regions for miss attribution."""

    def __init__(self) -> None:
        self._starts: list[int] = []
        self._ends: list[int] = []
        self._names: list[str] = []

    def add(self, name: str, start: int, nbytes: int) -> None:
        """Register region ``[start, start + nbytes)`` under ``name``."""
        if nbytes <= 0:
            raise ValueError(f"region {name!r} must have positive size")
        i = bisect.bisect_left(self._starts, start)
        if i > 0 and self._ends[i - 1] > start:
            raise ValueError(f"region {name!r} overlaps {self._names[i - 1]!r}")
        if i < len(self._starts) and start + nbytes > self._starts[i]:
            raise ValueError(f"region {name!r} overlaps {self._names[i]!r}")
        self._starts.insert(i, start)
        self._ends.insert(i, start + nbytes)
        self._names.insert(i, name)

    def add_array(self, name: str, arr: np.ndarray) -> None:
        """Register a live numpy buffer as a region."""
        self.add(name, arr.__array_interface__["data"][0], arr.nbytes)

    def labels(self, addrs: np.ndarray) -> list[str]:
        """Region name per address ('?' for unmapped)."""
        starts = np.asarray(self._starts, dtype=np.int64)
        idx = np.searchsorted(starts, addrs, "right") - 1
        ends = np.asarray(self._ends, dtype=np.int64)
        out = []
        for a, i in zip(np.asarray(addrs).tolist(), idx.tolist()):
            if i >= 0 and a < ends[i]:
                out.append(self._names[i])
            else:
                out.append("?")
        return out

    def attribute(
        self, addrs: np.ndarray, miss_mask: np.ndarray
    ) -> dict[str, tuple[int, int]]:
        """Per-region ``(accesses, misses)`` for a trace + miss mask."""
        addrs = np.asarray(addrs, dtype=np.int64).ravel()
        miss_mask = np.asarray(miss_mask, dtype=bool).ravel()
        if addrs.shape != miss_mask.shape:
            raise ValueError("trace and miss mask lengths differ")
        starts = np.asarray(self._starts, dtype=np.int64)
        ends = np.asarray(self._ends, dtype=np.int64)
        idx = np.searchsorted(starts, addrs, "right") - 1
        valid = (idx >= 0) & (addrs < ends[np.clip(idx, 0, None)])
        result: dict[str, tuple[int, int]] = {}
        for name_idx, name in enumerate(self._names):
            sel = valid & (idx == name_idx)
            result[name] = (
                int(np.count_nonzero(sel)),
                int(np.count_nonzero(sel & miss_mask)),
            )
        unmapped = ~valid
        if np.any(unmapped):
            result["?"] = (
                int(np.count_nonzero(unmapped)),
                int(np.count_nonzero(unmapped & miss_mask)),
            )
        return result

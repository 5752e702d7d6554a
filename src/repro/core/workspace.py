"""Preallocated scratch buffers for the Strassen recursions.

Each recursion level owns quarter-size scratch Morton matrices: ``s``
(A-shaped sums), ``t`` (B-shaped sums) and ``p``/``q`` (C-shaped
products).  Which of them a schedule needs is read off its step table
(:meth:`repro.core.winograd.StepTable.workspace` builds the matching
workspace); this module lays them out.  Because the seven recursive
products at a level execute sequentially, the deeper levels can all share
one set of buffers — so total scratch is a geometric series bounded by
~1/3 of the operand sizes per shape, allocated once up front rather than
churned per recursive call.

The layouts (``schedule=``):

* ``classic`` — ``s``/``t``/``p`` (and ``q`` with ``with_q``) are
  independent buffers; the classic Winograd and the Strassen tables both
  use all four.
* ``two_temp`` — Boyer, Dumas, Pernet & Zhou's two temporaries: one
  A-shaped X and one B-shaped Y per level.  X also has to hold one
  C-shaped product (P1), so its backing buffer is sized
  ``max(|A quarter|, |C quarter|)`` and exposed through two aliased
  Morton views (``s`` A-shaped, ``p`` C-shaped).
* ``ip_overwrite`` — **no** scratch at all: the schedule clobbers the A
  and B quadrants themselves.

``Workspace.nbytes`` reports the true allocation (aliased views counted
once); ``total_bytes`` is kept as a backwards-compatible alias.
"""

from __future__ import annotations

import numpy as np

from ..layout.matrix import BatchMortonMatrix, MortonMatrix, staggered_buffer
from ..observe.validate import POISON

__all__ = ["Workspace", "BatchWorkspace", "WORKSPACE_SCHEDULES"]

#: Scratch layouts a :class:`Workspace` can be built for.
WORKSPACE_SCHEDULES = ("classic", "two_temp", "ip_overwrite")


def _layout(
    schedule: str, with_q: bool, depth: int, tile_m: int, tile_k: int, tile_n: int
) -> tuple:
    """One level's backing buffers as ``(elems, ((slot, tiles), ...))``.

    Every schedule (see the module docstring) draws ``s`` A-shaped, ``t``
    B-shaped and ``p``/``q`` C-shaped views from these buffers.
    """
    a, b, c = (tile_m, tile_k), (tile_k, tile_n), (tile_m, tile_n)

    def elems(tiles: tuple[int, int]) -> int:
        return (tiles[0] << depth) * (tiles[1] << depth)

    if schedule == "two_temp":
        return (
            (max(elems(a), elems(c)), (("s", a), ("p", c))),  # p aliases s
            (elems(b), (("t", b),)),
        )
    slots = (("s", a), ("t", b), ("p", c)) + ((("q", c),) if with_q else ())
    return tuple((elems(t), ((name, t),)) for name, t in slots)


def _view(buf: np.ndarray, depth: int, tile_r: int, tile_c: int):
    """Morton view of ``buf``'s leading elements (per row of a 2-D stack)."""
    n = (tile_r << depth) * (tile_c << depth)
    return (MortonMatrix if buf.ndim == 1 else BatchMortonMatrix)(
        buf=buf[..., :n],
        rows=tile_r << depth,
        cols=tile_c << depth,
        tile_r=tile_r,
        tile_c=tile_c,
        depth=depth,
    )


class _Level:
    """Scratch Morton matrices for one recursion level.

    ``s``/``t``/``p``/``q`` are views over ``bufs``, the level's distinct
    backing arrays (1-D, or batch-stacked rows).  ``classic``: four
    independent buffers (``q`` only with ``with_q``).  ``two_temp``: ``s``
    and ``p`` view the *same* buffer (the schedule never needs both shapes
    live at once) and ``q`` is ``None``.  ``ip_overwrite`` levels are
    never built.
    """

    __slots__ = ("s", "t", "p", "q", "bufs")

    def __init__(self, depth: int, layout: tuple, bufs) -> None:
        self.bufs = tuple(bufs)
        self.q = None
        for buf, (_, slots) in zip(self.bufs, layout):
            for name, tiles in slots:
                setattr(self, name, _view(buf, depth, *tiles))

    @property
    def nbytes(self) -> int:
        """Bytes of the level's distinct backing arrays."""
        return sum(buf.nbytes for buf in self.bufs)


class Workspace:
    """Scratch for a depth-``d`` recursion over a given tile geometry.

    ``levels[j]`` serves the recursion level whose *children* have depth
    ``d - 1 - j`` (i.e. the scratch matrices at ``levels[j]`` are quarter
    matrices of a depth-``d - j`` problem).

    ``schedule`` selects the per-level layout (see module docstring); an
    ``ip_overwrite`` workspace owns no levels and no bytes.
    """

    def __init__(
        self,
        depth: int,
        tile_m: int,
        tile_k: int,
        tile_n: int,
        with_q: bool = False,
        schedule: str = "classic",
        dtype=np.float64,
    ) -> None:
        if schedule not in WORKSPACE_SCHEDULES:
            raise ValueError(
                f"unknown workspace schedule {schedule!r}; "
                f"expected one of {WORKSPACE_SCHEDULES}"
            )
        if with_q and schedule != "classic":
            raise ValueError(
                "with_q (Strassen's Q buffer) is only meaningful for the "
                f"classic schedule, not {schedule!r}"
            )
        self.depth = depth
        self.schedule = schedule
        self.levels = []
        if schedule != "ip_overwrite":
            for d in range(depth - 1, -1, -1):
                layout = _layout(schedule, with_q, d, tile_m, tile_k, tile_n)
                bufs = [np.empty(n, dtype=dtype) for n, _ in layout]
                self.levels.append(_Level(d, layout, bufs))

    def at(self, child_depth: int) -> _Level:
        """Scratch whose matrices have the given (child) depth."""
        return self.levels[self.depth - 1 - child_depth]

    @property
    def nbytes(self) -> int:
        """Bytes actually allocated (aliased two_temp views counted once)."""
        return sum(lv.nbytes for lv in self.levels)

    @property
    def total_bytes(self) -> int:
        """Backwards-compatible alias for :attr:`nbytes`."""
        return self.nbytes

    @property
    def buffer_count(self) -> int:
        """Distinct scratch arrays allocated (aliased views counted once)."""
        return sum(len(lv.bufs) for lv in self.levels)

    def _buffers(self):
        for lv in self.levels:
            yield from lv.bufs

    def poison(self, value: float = POISON) -> None:
        """Fill every scratch buffer with the quiescence sentinel.

        Debug mode calls this after each execution; every buffer is
        write-before-read within an execution, so the fill never changes
        results.
        """
        for buf in self._buffers():
            buf.fill(value)

    def poison_intact(self, value: float = POISON) -> bool:
        """True iff no scratch element changed since :meth:`poison`."""
        return all(bool((buf == value).all()) for buf in self._buffers())


class _BatchWorkspaceView:
    """Duck-types :class:`Workspace` for one ``[lo, hi)`` row range.

    Each view's levels are row slices of the shared raw arrays, so
    disjoint batch stripes can recurse concurrently over the same
    :class:`BatchWorkspace` with no contention and no extra memory.
    """

    __slots__ = ("schedule", "depth", "levels")

    def __init__(self, schedule: str, depth: int, levels: list) -> None:
        self.schedule = schedule
        self.depth = depth
        self.levels = levels

    def at(self, child_depth: int) -> _Level:
        return self.levels[self.depth - 1 - child_depth]


class BatchWorkspace:
    """Batch-stacked scratch for ``cap`` same-geometry recursions at once.

    The raw backing arrays are ``(cap, elems)`` — one scratch row per batch
    item — and :meth:`view` carves ``[lo, hi)`` row-range adapters whose
    levels hold :class:`~repro.layout.matrix.BatchMortonMatrix` views.  The
    ``two_temp`` aliasing (A-shaped X doubling as the C-shaped P1 slot)
    carries over as two column-prefix views of the same rows.
    ``ip_overwrite`` is rejected: the batched path never clobbers operands.
    """

    def __init__(
        self,
        cap: int,
        depth: int,
        tile_m: int,
        tile_k: int,
        tile_n: int,
        with_q: bool = False,
        schedule: str = "classic",
        dtype=np.float64,
        stagger: int = 0,
    ) -> None:
        if schedule not in ("classic", "two_temp"):
            raise ValueError(
                f"BatchWorkspace supports 'classic' and 'two_temp', not {schedule!r}"
            )
        if with_q and schedule != "classic":
            raise ValueError("with_q requires the classic schedule")
        self.cap = cap
        self.depth = depth
        self.schedule = schedule
        self.dtype = np.dtype(dtype)
        self._raw: list[tuple] = []  # per level, outermost first
        self._views: dict[tuple[int, int], _BatchWorkspaceView] = {}
        # Stack rows are large power-of-two-multiple allocations, so give
        # every buffer a distinct stagger index (continuing from the
        # caller's base) to keep their rows off common cache sets.
        def alloc(elems: int) -> np.ndarray:
            nonlocal stagger
            buf = staggered_buffer((cap, elems), dtype, stagger)
            stagger += 1 if stagger else 0
            return buf

        for d in range(depth - 1, -1, -1):
            layout = _layout(schedule, with_q, d, tile_m, tile_k, tile_n)
            self._raw.append((d, layout, [alloc(n) for n, _ in layout]))

    def view(self, lo: int, hi: int) -> _BatchWorkspaceView:
        """Workspace adapter over batch rows ``[lo, hi)`` (cached)."""
        if not (0 <= lo < hi <= self.cap):
            raise ValueError(f"stripe [{lo}, {hi}) outside capacity {self.cap}")
        key = (lo, hi)
        cached = self._views.get(key)
        if cached is not None:
            return cached
        levels = [
            _Level(d, layout, [buf[lo:hi] for buf in bufs])
            for d, layout, bufs in self._raw
        ]
        view = _BatchWorkspaceView(self.schedule, self.depth, levels)
        self._views[key] = view
        return view

    @property
    def nbytes(self) -> int:
        """Bytes actually allocated (aliased two_temp views counted once)."""
        return sum(arr.nbytes for arr in self._buffers())

    @property
    def total_bytes(self) -> int:
        return self.nbytes

    @property
    def buffer_count(self) -> int:
        """Distinct stacked scratch arrays allocated."""
        return sum(1 for _ in self._buffers())

    def _buffers(self):
        for _, _, bufs in self._raw:
            yield from bufs

    def poison(self, value: float = POISON) -> None:
        """Fill every stacked scratch row with the quiescence sentinel."""
        for arr in self._buffers():
            arr.fill(value)

    def poison_intact(self, value: float = POISON) -> bool:
        """True iff no stacked scratch element changed since :meth:`poison`."""
        return all(bool((arr == value).all()) for arr in self._buffers())

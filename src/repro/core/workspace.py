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

A workspace built with ``cap`` makes every buffer ``cap`` times longer
for the batched path: each slot is then a stacked Morton view with room
for ``cap`` items, and the executor runs a batch of ``n <= cap`` items,
interleaved by ``n`` (:mod:`repro.layout.matrix`), on each slot's first
``n`` item lengths.  ``Workspace.nbytes`` reports the true allocation
(aliased views counted once).
"""

from __future__ import annotations

import numpy as np

from ..layout.matrix import MortonMatrix, staggered_buffer
from ..observe.validate import POISON

__all__ = ["Workspace", "WORKSPACE_SCHEDULES"]

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


def _view(buf: np.ndarray, depth: int, tile_r: int, tile_c: int, cap):
    """Morton view (a stack with room for ``cap`` items, unless ``None``)
    of ``buf``'s leading elements."""
    n = (tile_r << depth) * (tile_c << depth) * (cap or 1)
    return MortonMatrix(
        buf=buf[:n],
        rows=tile_r << depth,
        cols=tile_c << depth,
        tile_r=tile_r,
        tile_c=tile_c,
        depth=depth,
        batch=cap,
    )


class _Level:
    """Scratch Morton matrices for one recursion level.

    ``s``/``t``/``p``/``q`` are views over ``bufs``, the level's distinct
    backing arrays (``cap`` item lengths each for a stack).  ``classic``:
    four independent buffers (``q`` only with ``with_q``).  ``two_temp``: ``s``
    and ``p`` view the *same* buffer (the schedule never needs both shapes
    live at once) and ``q`` is ``None``.  ``ip_overwrite`` levels are
    never built.
    """

    __slots__ = ("s", "t", "p", "q", "bufs")

    def __init__(self, depth: int, layout: tuple, bufs, cap=None) -> None:
        self.bufs = tuple(bufs)
        self.q = None
        for buf, (_, slots) in zip(self.bufs, layout):
            for name, tiles in slots:
                setattr(self, name, _view(buf, depth, *tiles, cap))

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
    ``ip_overwrite`` workspace owns no levels and no bytes.  ``cap``
    makes every buffer room for ``cap`` items; ``stagger > 0`` gives the
    buffers distinct stagger indices counting up from it
    (:func:`~repro.layout.matrix.staggered_buffer`), so they never share
    cache sets.
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
        cap: int | None = None,
        stagger: int = 0,
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
        if schedule == "ip_overwrite":
            return
        for d in range(depth - 1, -1, -1):
            layout = _layout(schedule, with_q, d, tile_m, tile_k, tile_n)
            bufs = []
            for n, _ in layout:
                bufs.append(staggered_buffer((n * (cap or 1),), dtype, stagger))
                stagger += 1 if stagger else 0
            self.levels.append(_Level(d, layout, bufs, cap))

    def at(self, child_depth: int) -> _Level:
        """Scratch whose matrices have the given (child) depth."""
        return self.levels[self.depth - 1 - child_depth]

    @property
    def nbytes(self) -> int:
        """Bytes actually allocated (aliased two_temp views counted once)."""
        return sum(lv.nbytes for lv in self.levels)

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

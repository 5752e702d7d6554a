"""The view-based step-table executor, kept as a test reference.

This is the executor the lowered :meth:`StepTable.execute` replaced: per
node it builds quadrant view objects (plain, batch-stacked or relabeled)
and hands them to the backend.  It runs the same tables, the same
programs and the same bound passes, so the lowering must reproduce its
results bit for bit and its address stream access for access.  The view
helpers it needs live here too, since the library no longer has them.

Its batch stacks stay *item-major* — ``(B, elems)``, one item per row —
while the library interleaves a stack's items tile by tile
(:mod:`repro.layout.matrix`); :func:`interleave` and :func:`deinterleave`
convert between the two, so the reference stays an independent check of
the stacked layout.

:class:`ViewOps` adapts an array-form backend (``NumpyOps``,
``TraceOps``) to the view vocabulary: additions receive each view's
buffer (one pass per item of an item-major stack, since the backends
take flat buffers), leaf products its leaf view.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.winograd import SCRATCH_SLOTS, bind_pass
from repro.layout.matrix import MortonMatrix


@dataclass
class Stacked:
    """A stack of same-geometry Morton views: ``buf`` is ``(B, elems)``."""

    buf: np.ndarray
    rows: int
    cols: int
    tile_r: int
    tile_c: int
    depth: int


def own(m):
    """The reference's view of a library Morton matrix.

    A library stack becomes an item-major :class:`Stacked` over the same
    bytes; only scratch is passed this way, which every schedule writes
    before it reads.
    """
    if m.batch is not None:
        buf = m.buf.reshape(m.batch, m.size)
        return Stacked(buf, m.rows, m.cols, m.tile_r, m.tile_c, m.depth)
    return m


def interleave(stack: np.ndarray, tile_elems: int) -> np.ndarray:
    """An item-major ``(B, elems)`` stack in the library's stacked layout:
    item ``i``'s tile at leaf ``l`` starts at ``(l * B + i) * tile_elems``."""
    b = stack.shape[0]
    return stack.reshape(b, -1, tile_elems).transpose(1, 0, 2).reshape(-1)


def deinterleave(buf: np.ndarray, tile_elems: int, n: int) -> np.ndarray:
    """The ``(n, elems)`` item-major form of an ``n``-item library stack."""
    return buf.reshape(-1, n, tile_elems).transpose(1, 0, 2).reshape(n, -1)


class Transposed:
    """Zero-copy logical transpose of a Morton(-batch) view."""

    transposed = True

    def __init__(self, base) -> None:
        self.base = base
        self.buf = base.buf
        self.depth = base.depth
        self.tile_r, self.tile_c = base.tile_c, base.tile_r


def _batch_view(m: Stacked, z: int) -> Stacked:
    quarter = m.buf.shape[1] // 4
    return Stacked(
        buf=m.buf[:, z * quarter : (z + 1) * quarter],
        rows=(m.tile_r << m.depth) // 2,
        cols=(m.tile_c << m.depth) // 2,
        tile_r=m.tile_r,
        tile_c=m.tile_c,
        depth=m.depth - 1,
    )


def quadrants(m) -> tuple:
    """(11, 12, 21, 22) quadrant views of a plain, batch or transposed view."""
    if isinstance(m, Transposed):
        q11, q12, q21, q22 = quadrants(m.base)
        return Transposed(q11), Transposed(q21), Transposed(q12), Transposed(q22)
    if isinstance(m, Stacked):
        return tuple(_batch_view(m, z) for z in range(4))
    return m.quadrants()


def leaf_view(m) -> np.ndarray:
    """The leaf-kernel view of a depth-0 view."""
    if isinstance(m, Transposed):
        lv = leaf_view(m.base)
        return lv.T if lv.ndim == 2 else lv.transpose(0, 2, 1)
    if isinstance(m, Stacked):
        return m.buf.reshape(m.buf.shape[0], m.tile_c, m.tile_r)
    return m.leaf_view()


def relabel_scratch(m) -> Transposed:
    """A plan-geometry scratch view read in its transposed operand's order."""
    native = type(m)(
        buf=m.buf,
        rows=m.tile_c << m.depth,
        cols=m.tile_r << m.depth,
        tile_r=m.tile_c,
        tile_c=m.tile_r,
        depth=m.depth,
    )
    return Transposed(native)


class ViewOps:
    """Run an array-form backend from view arguments."""

    def __init__(self, inner) -> None:
        self.inner = inner

    def __getattr__(self, name):
        fn = getattr(self.inner, name)
        if name == "leaf_mult":
            return lambda a, b, dst, **kw: fn(
                leaf_view(a), leaf_view(b), leaf_view(dst), **kw
            )

        def passes(*args, **kw):
            bufs = [m.buf for m in args]
            if bufs[0].ndim == 1:
                return fn(*bufs, **kw)
            for rows in zip(*bufs):
                fn(*rows, **kw)

        return passes


def reference_run(table, a, b, c, ops, workspace=None, alpha=1.0) -> None:
    """``c = alpha . a . b`` with ``table``, descending through view objects.

    ``ops`` is a view-vocabulary backend (wrap array backends in
    :class:`ViewOps`); ``a``/``b`` may be :class:`Transposed`.
    """
    if a.depth == 0:
        bind_pass(ops, "leaf_mult", alpha)(a, b, c)
        return
    if table.scratch and workspace is None:
        batch = a.buf.shape[0] if a.buf.ndim == 2 else None
        workspace = table.workspace(
            a.depth, a.tile_r, a.tile_c, b.tile_c,
            dtype=np.result_type(a.buf.dtype, b.buf.dtype), cap=batch,
        )
    flip = {
        kind for kind, m in (("A", a), ("B", b))
        if getattr(m, "transposed", False)
    }

    def level_slots(depth):
        if not table.scratch:
            return ()
        lv = workspace.at(depth)
        slots = [own(getattr(lv, s.lower())) for s in table.scratch]
        return tuple(
            relabel_scratch(m) if SCRATCH_SLOTS[s] in flip else m
            for s, m in zip(table.scratch, slots)
        )

    levels = [level_slots(d) for d in range(a.depth)]
    leaf = bind_pass(ops, "leaf_mult")
    passes = {op: bind_pass(ops, op) for op in table.ops}
    program = table._program
    finals = {
        op: bind_pass(ops, op, alpha) for op, final, *_ in program if final
    }

    def execute(program, v) -> None:
        for fn, i, j, k, l in program:
            if l is not None:
                fn(v[i], v[j], v[k], v[l])
            elif k is not None:
                fn(v[i], v[j], v[k])
            else:
                fn(v[i], v[j])

    def rec(x, y, z) -> None:
        d = x.depth
        execute(
            inner if d > 1 else last,
            (*quadrants(x), *quadrants(y), *quadrants(z), *levels[d - 1]),
        )

    def bind(program, mul, finals) -> list:
        return [
            (mul if op == "mul" else (finals if final else passes)[op], *args)
            for op, final, *args in program
        ]

    if a.depth > 1:
        inner = bind(program, rec, passes)
        last = bind(program, leaf, passes)
    top = bind(program, rec if a.depth > 1 else leaf, finals)
    execute(top, (*quadrants(a), *quadrants(b), *quadrants(c), *levels[-1]))


def morton(buf, tile_r, tile_c, depth, batch=None):
    """A Morton view over ``buf`` (padded geometry): an item-major
    :class:`Stacked` for a 2-D ``buf``, else a library matrix (a stack of
    ``batch`` interleaved items when ``batch`` is set)."""
    dims = dict(rows=tile_r << depth, cols=tile_c << depth, tile_r=tile_r,
                tile_c=tile_c, depth=depth)
    if buf.ndim == 2:
        return Stacked(buf=buf, **dims)
    return MortonMatrix(buf=buf, batch=batch, **dims)

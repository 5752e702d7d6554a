"""The lowered executor against the view-based reference it replaced.

:meth:`StepTable.execute` runs every table on raw buffer slices; the
reference (``reference_executor.py``) descends through quadrant view
objects.  Both must produce the same bits, and — through the cache
simulator's backend — the same address stream on the same buffers.  A
warm execute must build no per-node matrix objects at all.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cachesim.trace import TraceCollector
from repro.cachesim.tracegen import TraceOps
from repro.core.ops import NumpyOps
from repro.core.strassen import STRASSEN_TABLE
from repro.core.winograd import SCHEDULE_TABLES
from repro.engine import GemmSession
from repro.layout import matrix, relabel
from repro.layout.padding import select_common_tiling
from repro.layout.relabel import transposed_view

from .reference_executor import (
    Transposed,
    ViewOps,
    deinterleave,
    interleave,
    morton,
    reference_run,
)

TABLES = {**SCHEDULE_TABLES, "strassen": STRASSEN_TABLE}


@settings(max_examples=80, deadline=None)
@given(
    name=st.sampled_from(sorted(TABLES)),
    depth=st.integers(0, 4),
    tiles=st.tuples(*[st.integers(1, 3)] * 3),
    alpha=st.sampled_from([1.0, 0.5]),
    trans=st.tuples(st.booleans(), st.booleans()),
    batch=st.sampled_from([None, 1, 3]),
    dtype=st.sampled_from([np.float64, np.float32]),
    seed=st.integers(0, 2**32 - 1),
)
def test_bit_identical_to_view_reference(name, depth, tiles, alpha, trans,
                                         batch, dtype, seed):
    table = TABLES[name]
    if table.in_place:
        tiles = (tiles[0],) * 3
        trans, batch = (False, False), None
    tm, tk, tn = tiles
    rng = np.random.default_rng(seed)
    lead = () if batch is None else (batch,)

    def buf(r, c):
        return rng.standard_normal((*lead, (r << depth) * (c << depth))).astype(dtype)

    # Relabeled operands are stored in native orientation.  A batch is
    # drawn item-major, the reference's layout; the lowered executor gets
    # the same items interleaved tile by tile.
    geo_a = (tk, tm) if trans[0] else (tm, tk)
    geo_b = (tn, tk) if trans[1] else (tk, tn)
    a0, b0 = buf(*geo_a), buf(*geo_b)
    c_elems = (tm << depth) * (tn << depth)

    def lowered():
        def stacked(x, r, c):
            x = x.copy() if batch is None else interleave(x, r * c)
            return morton(x, r, c, depth, batch)

        a, b = stacked(a0, *geo_a), stacked(b0, *geo_b)
        c = morton(np.empty(c_elems * (batch or 1), dtype), tm, tn, depth, batch)
        if trans[0]:
            a = transposed_view(a)
        if trans[1]:
            b = transposed_view(b)
        ws = table.workspace(depth, tm, tk, tn, dtype=dtype, cap=batch)
        table.run(a, b, c, NumpyOps(), ws, alpha)
        return c.buf if batch is None else deinterleave(c.buf, tm * tn, batch)

    def reference():
        a = morton(a0.copy(), *geo_a, depth)
        b = morton(b0.copy(), *geo_b, depth)
        c = morton(np.empty((*lead, c_elems), dtype), tm, tn, depth)
        if trans[0]:
            a = Transposed(a)
        if trans[1]:
            b = Transposed(b)
        ws = table.workspace(depth, tm, tk, tn, dtype=dtype, cap=batch)
        reference_run(table, a, b, c, ViewOps(NumpyOps()), ws, alpha)
        return c.buf

    got, want = lowered(), reference()
    if batch is None:
        assert np.array_equal(got, want)
    for i in range(batch or 0):
        assert np.array_equal(got[i], want[i])


@pytest.mark.parametrize("name", ["classic", "strassen"])
def test_trace_stream_matches_reference(name):
    table = TABLES[name]
    tm, tk, tn = select_common_tiling((64, 64, 64))
    a = matrix.MortonMatrix.zeros(64, 64, tm, tk)
    b = matrix.MortonMatrix.zeros(64, 64, tk, tn)
    c = matrix.MortonMatrix.zeros(64, 64, tm, tn)
    ws = table.workspace(tm.depth, tm.tile, tk.tile, tn.tile)
    assert tm.depth >= 1
    lowered, ref = TraceCollector(), TraceCollector()
    table.run(a, b, c, TraceOps(lowered), ws)
    reference_run(table, a, b, c, ViewOps(TraceOps(ref)), ws)
    assert lowered.total > 0
    assert np.array_equal(lowered.concatenate(), ref.concatenate())


def test_workspace_checked_once_at_entry():
    # A workspace of the wrong geometry is rejected before any pass runs.
    calls = []

    class Recording(NumpyOps):
        def sub(self, *args):
            calls.append("sub")
            super().sub(*args)

    a = morton(np.zeros(64), 2, 2, 2)
    b = morton(np.zeros(64), 2, 2, 2)
    c = morton(np.zeros(64), 2, 2, 2)
    ws = TABLES["classic"].workspace(2, 2, 2, 3)
    with pytest.raises(ValueError, match="operands need"):
        TABLES["classic"].run(a, b, c, Recording(), ws)
    assert calls == []


class _Counted:
    """Counts constructions of the Morton view classes (single or stacked
    :class:`MortonMatrix`, and :class:`TransposedView`)."""

    def __init__(self, monkeypatch):
        self.n = 0
        cls = matrix.MortonMatrix
        monkeypatch.setattr(cls, "__post_init__", self._wrap(cls.__post_init__))
        monkeypatch.setattr(
            relabel.TransposedView, "__init__",
            self._wrap(relabel.TransposedView.__init__),
        )

    def _wrap(self, fn):
        def counted(obj, *args):
            self.n += 1
            return fn(obj, *args)

        return counted


@pytest.mark.parametrize("kind", ["plain", "relabeled", "batch"])
def test_warm_execute_builds_no_view_objects(monkeypatch, rng, kind):
    # Tile 8 at n=256: depth 5, 2,801 interior nodes per product.
    n = 256
    a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    with GemmSession(policy=8) as s:
        if kind == "batch":
            pairs = [(a, b), (b, a)]

            def call():
                return s.multiply_many(pairs)
        else:
            kw = dict(op_a="t", alpha=0.5) if kind == "relabeled" else {}

            def call():
                return s.multiply(a, b, **kw)

        assert s.plan(n, n, n).tilings[0].depth == 5
        call()  # cold: compiles the plan and pools its buffers
        counter = _Counted(monkeypatch)
        call()
    assert counter.n == 0


class _ContiguityOps(NumpyOps):
    """Asserts that every pass and leaf product gets C-contiguous arrays."""

    def __init__(self) -> None:
        super().__init__()
        self.passes = self.leaf_stacks = 0

    def _check(self, *arrays) -> None:
        assert all(x.flags.c_contiguous for x in arrays)
        self.passes += 1

    def add(self, dst, x, y):
        self._check(dst, x, y)
        super().add(dst, x, y)

    def sub(self, dst, x, y):
        self._check(dst, x, y)
        super().sub(dst, x, y)

    def iadd(self, dst, x):
        self._check(dst, x)
        super().iadd(dst, x)

    def add3(self, dst, x, y, z):
        self._check(dst, x, y, z)
        super().add3(dst, x, y, z)

    def leaf_mult(self, a, b, dst, alpha=1.0):
        assert dst.ndim == 3 and all(x.flags.c_contiguous for x in (a, b, dst))
        self.leaf_stacks += 1
        super().leaf_mult(a, b, dst, alpha)


@pytest.mark.parametrize("name", ["classic", "two_temp", "strassen"])
def test_stacked_execute_runs_on_contiguous_operands(rng, name):
    # Every quadrant of a stack, at every level, is one contiguous range
    # holding all its items' parts, and every leaf site one contiguous
    # (items, c, r) stack: no pass or leaf product sees a strided slab.
    table = TABLES[name]
    tr, tc = select_common_tiling((96, 96))
    a, b, c = (matrix.MortonMatrix.zeros(96, 96, tr, tc, cap=3) for _ in "abc")
    a.buf[...] = rng.standard_normal(a.buf.shape)
    b.buf[...] = rng.standard_normal(b.buf.shape)
    ws = table.workspace(tr.depth, tr.tile, tr.tile, tc.tile, cap=3)
    ops = _ContiguityOps()
    table.run(a, b, c, ops, ws)
    assert tr.depth == 2 and ops.leaf_stacks == 7**2 and ops.passes > 0

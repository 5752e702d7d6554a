"""Unit tests for the numpy recursion backend.

The passes take the executor's raw buffers: flat arrays for additions,
leaf-tile views for products.
"""

import numpy as np
import pytest

from repro.core.ops import FUSE_CHUNK_ELEMS, NumpyOps
from repro.layout.matrix import MortonMatrix


def leaf(rows, cols, value=0.0):
    """A flat ``rows x cols`` buffer filled with ``value``."""
    return np.full(rows * cols, value)


class TestVectorOps:
    def test_add(self):
        ops = NumpyOps()
        x, y, d = leaf(4, 4, 2.0), leaf(4, 4, 3.0), leaf(4, 4)
        ops.add(d, x, y)
        assert np.all(d == 5.0)

    def test_sub_aliasing_destination(self):
        ops = NumpyOps()
        x, y = leaf(4, 4, 5.0), leaf(4, 4, 2.0)
        ops.sub(x, x, y)  # x = x - y in place
        assert np.all(x == 3.0)

    def test_iadd(self):
        ops = NumpyOps()
        x, d = leaf(4, 4, 2.0), leaf(4, 4, 1.0)
        ops.iadd(d, x)
        assert np.all(d == 3.0)

    def test_size_mismatch_rejected(self):
        ops = NumpyOps()
        with pytest.raises(ValueError):
            ops.add(leaf(4, 4), leaf(4, 4), leaf(4, 5))
        with pytest.raises(ValueError):
            ops.iadd(leaf(4, 4), leaf(3, 3))
        with pytest.raises(ValueError):
            ops.add3(leaf(4, 4), leaf(4, 4), leaf(4, 4), leaf(4, 5))


class TestFusedOps:
    def test_add3_basic(self):
        ops = NumpyOps()
        x, y, z, d = leaf(4, 4, 1.0), leaf(4, 4, 2.0), leaf(4, 4, 4.0), leaf(4, 4)
        ops.add3(d, x, y, z)
        assert np.all(d == 7.0)
        assert ops.fused_adds == 1

    def test_add3_matches_unfused_bitwise(self, rng):
        n = 16
        vals = [rng.standard_normal(n * n) * 10.0**e for e in (-8, 0, 8)]
        mats = []
        for v in vals:
            m = leaf(n, n)
            m[:] = v
            mats.append(m)
        x, y, z = mats
        fused, staged = leaf(n, n), leaf(n, n)
        ops = NumpyOps()
        ops.add3(fused, x, y, z)
        ops.add(staged, x, y)
        ops.iadd(staged, z)
        assert np.array_equal(fused, staged)

    def test_add3_spans_multiple_chunks(self, rng):
        # A buffer larger than one fuse chunk exercises the chunk loop.
        edge = 1
        while edge * edge <= FUSE_CHUNK_ELEMS:
            edge *= 2
        x, y, z, d = (leaf(edge, edge) for _ in range(4))
        x[:] = rng.standard_normal(x.size)
        y[:] = rng.standard_normal(y.size)
        z[:] = rng.standard_normal(z.size)
        NumpyOps().add3(d, x, y, z)
        assert np.array_equal(d, (x + y) + z)

    def test_add3_dst_may_alias_any_operand(self, rng):
        for alias in range(3):
            bufs = [rng.standard_normal(64) for _ in range(3)]
            mats = []
            for v in bufs:
                m = leaf(8, 8)
                m[:] = v
                mats.append(m)
            expect = (bufs[0] + bufs[1]) + bufs[2]
            NumpyOps().add3(mats[alias], mats[0], mats[1], mats[2])
            assert np.array_equal(mats[alias], expect)

    @pytest.mark.parametrize("name,operands,fused", [
        ("add", 3, 0), ("sub", 3, 0), ("iadd", 2, 0),
        ("add3", 4, 1), ("add_scale", 3, 0), ("iadd_scale", 2, 0),
        ("add3_scale", 4, 1),
    ])
    def test_every_pass_traces_one_add_event(self, name, operands, fused):
        from repro.observe import Tracer

        tracer = Tracer(enabled=True)
        ops = NumpyOps(trace=tracer)
        args = [leaf(4, 4, 1.0) for _ in range(operands)]
        if name.endswith("_scale"):
            args.append(0.5)
        getattr(ops, name)(*args)
        assert [ev.kind for ev in tracer.events()] == ["add"]
        assert ops.fused_adds == fused


class TestLeafMult:
    def test_matches_numpy(self, rng):
        a2 = rng.standard_normal((5, 7))
        b2 = rng.standard_normal((7, 3))
        a = MortonMatrix.from_dense(a2)
        b = MortonMatrix.from_dense(b2)
        c = np.empty((5, 3), order="F")
        NumpyOps().leaf_mult(a.leaf_view(), b.leaf_view(), c)
        assert np.allclose(c, a2 @ b2)

    def test_kernel_selection(self, rng):
        a2 = rng.standard_normal((6, 6))
        b2 = rng.standard_normal((6, 6))
        a, b = MortonMatrix.from_dense(a2), MortonMatrix.from_dense(b2)
        for kernel in ("numpy", "blocked", "naive"):
            c = np.empty((6, 6), order="F")
            NumpyOps(kernel).leaf_mult(a.leaf_view(), b.leaf_view(), c)
            assert np.allclose(c, a2 @ b2)

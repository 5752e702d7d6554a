"""Unit tests for the numpy recursion backend."""

import numpy as np
import pytest

from repro.core.ops import FUSE_CHUNK_ELEMS, NumpyOps
from repro.layout.matrix import MortonMatrix
from repro.layout.padding import Tiling


def leaf(rows, cols, value=0.0):
    m = MortonMatrix.zeros(
        rows, cols, Tiling(rows, rows, 0), Tiling(cols, cols, 0)
    )
    m.buf[:] = value
    return m


class TestVectorOps:
    def test_add(self):
        ops = NumpyOps()
        x, y, d = leaf(4, 4, 2.0), leaf(4, 4, 3.0), leaf(4, 4)
        ops.add(d, x, y)
        assert np.all(d.buf == 5.0)

    def test_sub_aliasing_destination(self):
        ops = NumpyOps()
        x, y = leaf(4, 4, 5.0), leaf(4, 4, 2.0)
        ops.sub(x, x, y)  # x = x - y in place
        assert np.all(x.buf == 3.0)

    def test_iadd(self):
        ops = NumpyOps()
        x, d = leaf(4, 4, 2.0), leaf(4, 4, 1.0)
        ops.iadd(d, x)
        assert np.all(d.buf == 3.0)

    def test_size_mismatch_rejected(self):
        ops = NumpyOps()
        with pytest.raises(ValueError):
            ops.add(leaf(4, 4), leaf(4, 4), leaf(4, 5))
        with pytest.raises(ValueError):
            ops.iadd(leaf(4, 4), leaf(3, 3))
        with pytest.raises(ValueError):
            ops.add3(leaf(4, 4), leaf(4, 4), leaf(4, 4), leaf(4, 5))
        with pytest.raises(ValueError):
            ops.sub_into(leaf(4, 4), leaf(3, 3))


class TestFusedOps:
    def test_add3_basic(self):
        ops = NumpyOps()
        x, y, z, d = leaf(4, 4, 1.0), leaf(4, 4, 2.0), leaf(4, 4, 4.0), leaf(4, 4)
        ops.add3(d, x, y, z)
        assert np.all(d.buf == 7.0)
        assert ops.fused_adds == 1

    def test_add3_matches_unfused_bitwise(self, rng):
        n = 16
        vals = [rng.standard_normal(n * n) * 10.0**e for e in (-8, 0, 8)]
        mats = []
        for v in vals:
            m = leaf(n, n)
            m.buf[:] = v
            mats.append(m)
        x, y, z = mats
        fused, staged = leaf(n, n), leaf(n, n)
        ops = NumpyOps()
        ops.add3(fused, x, y, z)
        ops.add(staged, x, y)
        ops.iadd(staged, z)
        assert np.array_equal(fused.buf, staged.buf)

    def test_add3_spans_multiple_chunks(self, rng):
        # A buffer larger than one fuse chunk exercises the chunk loop.
        edge = 1
        while edge * edge <= FUSE_CHUNK_ELEMS:
            edge *= 2
        x, y, z, d = (leaf(edge, edge) for _ in range(4))
        x.buf[:] = rng.standard_normal(x.buf.size)
        y.buf[:] = rng.standard_normal(y.buf.size)
        z.buf[:] = rng.standard_normal(z.buf.size)
        NumpyOps().add3(d, x, y, z)
        assert np.array_equal(d.buf, (x.buf + y.buf) + z.buf)

    def test_add3_dst_may_alias_any_operand(self, rng):
        for alias in range(3):
            bufs = [rng.standard_normal(64) for _ in range(3)]
            mats = []
            for v in bufs:
                m = leaf(8, 8)
                m.buf[:] = v
                mats.append(m)
            expect = (bufs[0] + bufs[1]) + bufs[2]
            NumpyOps().add3(mats[alias], mats[0], mats[1], mats[2])
            assert np.array_equal(mats[alias].buf, expect)

    def test_sub_into(self):
        ops = NumpyOps()
        d, x = leaf(4, 4, 2.0), leaf(4, 4, 7.0)
        ops.sub_into(d, x)  # d = x - d
        assert np.all(d.buf == 5.0)
        assert ops.fused_adds == 0  # sub_into is a plain pass, not a fusion

    @pytest.mark.parametrize("name,operands,fused", [
        ("add", 3, 0), ("sub", 3, 0), ("iadd", 2, 0), ("sub_into", 2, 0),
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
        c = leaf(5, 3)
        NumpyOps().leaf_mult(a, b, c)
        assert np.allclose(c.to_dense(), a2 @ b2)

    def test_kernel_selection(self, rng):
        a2 = rng.standard_normal((6, 6))
        b2 = rng.standard_normal((6, 6))
        a, b = MortonMatrix.from_dense(a2), MortonMatrix.from_dense(b2)
        for kernel in ("numpy", "blocked", "naive"):
            c = leaf(6, 6)
            NumpyOps(kernel).leaf_mult(a, b, c)
            assert np.allclose(c.to_dense(), a2 @ b2)

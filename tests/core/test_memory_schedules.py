"""Tests for the low-memory Winograd schedules (two_temp / ip_overwrite)."""

import numpy as np
import pytest

from repro.core.ops import NumpyOps
from repro.core.parallel import TaskScratch
from repro.core.winograd import (
    MEMORY_SCHEDULES,
    resolve_memory,
    winograd_multiply,
)
from repro.core.workspace import Workspace
from repro.layout.convert import dense_to_morton
from repro.layout.matrix import MortonMatrix


def morton(rows, cols, tile_r, tile_c, depth, dense=None):
    mm = MortonMatrix(
        buf=np.zeros((tile_r << depth) * (tile_c << depth), dtype=np.float64),
        rows=rows,
        cols=cols,
        tile_r=tile_r,
        tile_c=tile_c,
        depth=depth,
    )
    if dense is not None:
        dense_to_morton(dense, mm)
    return mm


def operands(rng, m, k, n, tm, tk, tn, depth):
    a = np.asfortranarray(rng.standard_normal((m, k)))
    b = np.asfortranarray(rng.standard_normal((k, n)))
    amm = morton(m, k, tm, tk, depth, a)
    bmm = morton(k, n, tk, tn, depth, b)
    return a, b, amm, bmm


class TestResolveMemory:
    def test_canonical_names(self):
        for name in MEMORY_SCHEDULES:
            assert resolve_memory(name) == name

    def test_none_and_aliases(self):
        assert resolve_memory(None) == "classic"
        assert resolve_memory("ip") == "ip_overwrite"
        assert resolve_memory("IP-Overwrite") == "ip_overwrite"
        assert resolve_memory("  Two_Temp ") == "two_temp"

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown memory schedule"):
            resolve_memory("tiny")


class TestTwoTemp:
    @pytest.mark.parametrize(
        "m,k,n,tm,tk,tn,depth",
        [
            (16, 16, 16, 2, 2, 2, 3),
            (23, 19, 27, 6, 5, 7, 2),
            (12, 12, 12, 3, 3, 3, 2),
            (5, 5, 5, 5, 5, 5, 0),
        ],
    )
    def test_bit_identical_to_classic(self, rng, m, k, n, tm, tk, tn, depth):
        _, _, amm, bmm = operands(rng, m, k, n, tm, tk, tn, depth)
        c1 = morton(m, n, tm, tn, depth)
        c2 = morton(m, n, tm, tn, depth)
        winograd_multiply(amm, bmm, c1)
        winograd_multiply(amm, bmm, c2, memory="two_temp")
        assert np.array_equal(c1.buf, c2.buf)

    def test_operands_not_mutated(self, rng):
        _, _, amm, bmm = operands(rng, 16, 16, 16, 2, 2, 2, 3)
        a_snap, b_snap = amm.buf.copy(), bmm.buf.copy()
        winograd_multiply(amm, bmm, morton(16, 16, 2, 2, 3), memory="two_temp")
        assert np.array_equal(amm.buf, a_snap)
        assert np.array_equal(bmm.buf, b_snap)

    def test_uses_fused_passes(self, rng):
        _, _, amm, bmm = operands(rng, 16, 16, 16, 2, 2, 2, 3)
        # One add3 per internal recursion node: 1 + 7 + 49 at depth 3;
        # alpha scales the top node's add3 without changing the count.
        for alpha in (1.0, 0.5):
            ops = NumpyOps()
            winograd_multiply(
                amm, bmm, morton(16, 16, 2, 2, 3), ops=ops, memory="two_temp",
                alpha=alpha,
            )
            assert ops.fused_adds == 57

    def test_classic_workspace_rejected(self, rng):
        _, _, amm, bmm = operands(rng, 8, 8, 8, 2, 2, 2, 2)
        ws = Workspace(2, 2, 2, 2, with_q=True)
        with pytest.raises(ValueError, match="schedule='two_temp'"):
            winograd_multiply(
                amm, bmm, morton(8, 8, 2, 2, 2),
                workspace=ws, memory="two_temp",
            )

    def test_backend_without_fused_passes_rejected(self, rng):
        class MinimalOps:
            add = sub = iadd = leaf_mult = staticmethod(lambda *a: None)

        _, _, amm, bmm = operands(rng, 8, 8, 8, 2, 2, 2, 2)
        with pytest.raises(ValueError, match="add3"):
            winograd_multiply(
                amm, bmm, morton(8, 8, 2, 2, 2),
                ops=MinimalOps(), memory="two_temp",
            )


class TestIpOverwrite:
    @pytest.mark.parametrize(
        "m,k,n,tile,depth",
        [
            (16, 16, 16, 2, 3),
            (30, 30, 30, 4, 3),
            (12, 12, 12, 3, 2),
            (6, 6, 6, 6, 0),
        ],
    )
    def test_bit_identical_to_classic(self, rng, m, k, n, tile, depth):
        _, _, amm, bmm = operands(rng, m, k, n, tile, tile, tile, depth)
        c1 = morton(m, n, tile, tile, depth)
        winograd_multiply(amm, bmm, c1)
        a2 = morton(m, k, tile, tile, depth)
        a2.buf[:] = amm.buf
        b2 = morton(k, n, tile, tile, depth)
        b2.buf[:] = bmm.buf
        c2 = morton(m, n, tile, tile, depth)
        winograd_multiply(a2, b2, c2, memory="ip_overwrite")
        assert np.array_equal(c1.buf, c2.buf)

    def test_clobbers_operands(self, rng):
        # The documented contract: A and B are consumed at depth >= 1.
        _, _, amm, bmm = operands(rng, 16, 16, 16, 2, 2, 2, 3)
        a_snap, b_snap = amm.buf.copy(), bmm.buf.copy()
        winograd_multiply(amm, bmm, morton(16, 16, 2, 2, 3), memory="ip")
        assert not np.array_equal(amm.buf, a_snap)
        assert not np.array_equal(bmm.buf, b_snap)

    def test_nonuniform_tiles_rejected(self, rng):
        _, _, amm, bmm = operands(rng, 8, 12, 8, 2, 3, 2, 2)
        with pytest.raises(ValueError, match="uniform tile geometry"):
            winograd_multiply(
                amm, bmm, morton(8, 8, 2, 2, 2), memory="ip_overwrite"
            )

    def test_needs_no_workspace(self, rng):
        _, _, amm, bmm = operands(rng, 8, 8, 8, 2, 2, 2, 2)
        ws = Workspace(2, 2, 2, 2, schedule="ip_overwrite")
        assert ws.nbytes == 0
        c = morton(8, 8, 2, 2, 2)
        winograd_multiply(amm, bmm, c, workspace=ws, memory="ip_overwrite")
        assert np.isfinite(c.buf).all()


ADD_PASSES = (
    "add", "sub", "iadd", "add3",
    "add_scale", "iadd_scale", "add3_scale",
)


class _PassCountingOps(NumpyOps):
    """NumpyOps that also counts every addition pass it executes."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.passes = 0


def _counted(name):
    def method(self, *args, **kwargs):
        self.passes += 1
        return getattr(NumpyOps, name)(self, *args, **kwargs)

    return method


for _name in ADD_PASSES:
    setattr(_PassCountingOps, _name, _counted(_name))


class TestTraceCoverage:
    @pytest.mark.parametrize("memory", [*MEMORY_SCHEDULES, "strassen"])
    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    def test_one_add_event_per_pass(self, rng, memory, alpha):
        from repro.core.strassen import strassen_multiply
        from repro.observe import Tracer

        _, _, amm, bmm = operands(rng, 16, 16, 16, 2, 2, 2, 3)
        tracer = Tracer(capacity=1 << 12, enabled=True)
        ops = _PassCountingOps(trace=tracer)
        c = morton(16, 16, 2, 2, 3)
        if memory == "strassen":
            strassen_multiply(amm, bmm, c, ops=ops, alpha=alpha)
        else:
            winograd_multiply(amm, bmm, c, ops=ops, memory=memory, alpha=alpha)
        adds = sum(ev.kind == "add" for ev in tracer.events())
        per_node = {"classic": 15, "strassen": 18}.get(memory, 14)
        assert adds == ops.passes == 57 * per_node


class TestScratchDtype:
    @pytest.mark.parametrize("memory", ["classic", "two_temp"])
    def test_default_scratch_follows_operands(self, rng, memory):
        _, _, amm, bmm = operands(rng, 64, 64, 64, 8, 8, 8, 3)
        amm.buf = amm.buf.astype(np.float32)
        bmm.buf = bmm.buf.astype(np.float32)
        c1 = morton(64, 64, 8, 8, 3)
        c1.buf = c1.buf.astype(np.float32)
        c2 = morton(64, 64, 8, 8, 3)
        c2.buf = c2.buf.astype(np.float32)
        winograd_multiply(amm, bmm, c1, memory=memory)
        ws = Workspace(
            3, 8, 8, 8, with_q=memory == "classic",
            schedule=memory, dtype=np.float32,
        )
        winograd_multiply(amm, bmm, c2, workspace=ws, memory=memory)
        assert np.array_equal(c1.buf, c2.buf)


class TestTaskScratchMemory:
    def test_two_temp_shrinks_leaf_workspaces(self):
        classic = TaskScratch(4, 4, 4, 4, parallel_depth=1, workers=4)
        lean = TaskScratch(
            4, 4, 4, 4, parallel_depth=1, workers=4, memory="two_temp"
        )
        assert lean.memory == "two_temp"
        assert (
            lean.workspace_pool.total_bytes < classic.workspace_pool.total_bytes
        )
        assert lean.buffer_count < classic.buffer_count

    def test_ip_rejected(self):
        with pytest.raises(ValueError, match="ip_overwrite"):
            TaskScratch(4, 4, 4, 3, memory="ip_overwrite")

"""Engine-level tests of the unfused top level, and the kernel registry.

Fused convert-and-add packing is gone: conversion is a pure block copy,
and the recursion forms the top level's S1/S3/T1/T3 sums with its own
add passes at every level.  The load-bearing property stays the one the
fused path was held to: the engine's product is *bitwise identical* to
the two-pass reference — operands converted by a gather through
:func:`~repro.layout.morton.element_offsets`, the step table run by
:func:`winograd_multiply` — on all three memory schedules, and stacked
batches match per-item products.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blas import (
    HAVE_NUMBA,
    KERNELS,
    get_accumulate_cap,
    get_kernel,
    leaf_matmul,
    register_kernel,
    set_accumulate_cap,
)
from repro.core.truncation import TruncationPolicy
from repro.core.winograd import winograd_multiply
from repro.engine import GemmSession
from repro.errors import KernelError
from repro.layout.matrix import MortonMatrix
from repro.layout.morton import element_offsets

# Forces tile 8 / depth >= 1 on the small sizes hypothesis explores (the
# default policy truncates to depth 0 below n=65).
POLICY = 8

dims = st.integers(min_value=16, max_value=48)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
memories = st.sampled_from(["classic", "two_temp", "ip_overwrite"])
dtypes = st.sampled_from([np.float64, np.float32])
batch_sizes = st.sampled_from([1, 2, 7])


def _bits(x):
    itype = np.int32 if x.dtype == np.float32 else np.int64
    return np.ascontiguousarray(x).view(itype).tobytes()


def _operands(rng, m, k, n, dtype=np.float64):
    a = rng.standard_normal((m, k)).astype(dtype)
    b = rng.standard_normal((k, n)).astype(dtype)
    return a, b


def _two_pass(a, b, memory):
    """The reference: gather-converted operands, the table's own adds."""
    tm, tk, tn = TruncationPolicy.coerce(POLICY).plan(
        a.shape[0], a.shape[1], b.shape[1]
    )

    def morton(x, tr, tc):
        r, c = x.shape
        buf = np.zeros(tr.padded * tc.padded, dtype=x.dtype)
        offs = element_offsets(np.arange(r)[:, None], np.arange(c)[None, :],
                               tr.tile, tc.tile, tr.depth)
        buf[offs] = x
        return MortonMatrix(buf=buf, rows=r, cols=c, tile_r=tr.tile,
                            tile_c=tc.tile, depth=tr.depth)

    am, bm = morton(a, tm, tk), morton(b, tk, tn)
    cm = MortonMatrix(buf=np.empty(tm.padded * tn.padded, dtype=a.dtype),
                      rows=a.shape[0], cols=b.shape[1], tile_r=tm.tile,
                      tile_c=tn.tile, depth=tm.depth)
    winograd_multiply(am, bm, cm, memory=memory)
    offs = element_offsets(np.arange(cm.rows)[:, None],
                           np.arange(cm.cols)[None, :],
                           cm.tile_r, cm.tile_c, cm.depth)
    return cm.buf[offs]


class TestBitIdentity:
    @settings(max_examples=40, deadline=None)
    @given(m=dims, k=dims, n=dims, seed=seeds, memory=memories,
           dtype=dtypes)
    def test_fused_matches_two_pass(self, m, k, n, seed, memory, dtype):
        # Engine product == gather-converted step-table reference, bitwise.
        rng = np.random.default_rng(seed)
        a, b = _operands(rng, m, k, n, dtype)
        with GemmSession(policy=POLICY, memory=memory) as s:
            assert s.plan(m, k, n).tilings[0].depth >= 1
            c1 = s.multiply(a, b)
            c1b = s.multiply(a, b)  # warm (cached-plan) rerun
        c0 = _two_pass(a.astype(c1.dtype), b.astype(c1.dtype), memory)
        assert _bits(c1) == _bits(c0)
        assert _bits(c1b) == _bits(c0)

    @settings(max_examples=25, deadline=None)
    @given(n=dims, nb=batch_sizes, seed=seeds,
           memory=st.sampled_from(["classic", "two_temp"]), dtype=dtypes)
    def test_batch_fused_matches_two_pass(self, n, nb, seed, memory, dtype):
        # Each item of a stacked batch matches its per-item product bit
        # for bit.
        rng = np.random.default_rng(seed)
        pairs = [_operands(rng, n, n, n, dtype) for _ in range(nb)]
        with GemmSession(policy=POLICY, memory=memory) as s:
            batched = s.multiply_many(pairs)
            single = [s.multiply(a, b) for a, b in pairs]
        for c1, c0 in zip(batched, single):
            assert _bits(c1) == _bits(c0)

    @pytest.mark.parametrize("memory", ["classic", "ip_overwrite"])
    def test_transposes_alpha_beta(self, rng, memory):
        # classic relabels transposed operands; ip_overwrite converts
        # straight from the transposed dense source.  Either way the
        # product matches the call on explicitly transposed copies.
        a = rng.standard_normal((20, 16))
        b = rng.standard_normal((24, 20))
        c = rng.standard_normal((16, 24))
        with GemmSession(policy=POLICY, memory=memory) as s:
            c1 = s.multiply(a, b, c.copy(), op_a="t", op_b="t", alpha=0.5,
                            beta=-1.5)
            c0 = s.multiply(a.T.copy(), b.T.copy(), c.copy(), alpha=0.5,
                            beta=-1.5)
        assert _bits(c1) == _bits(c0)


class TestGate:
    def test_invalid_value_rejected(self):
        # fused_pack= is gone: every value it took is now a TypeError.
        for value in (True, False, "always"):
            with pytest.raises(TypeError, match="fused_pack"):
                GemmSession(fused_pack=value)


class TestStats:
    def test_fused_pack_and_convert_counters(self, rng):
        # Conversion time is counted; no packing counter exists.
        a, b = _operands(rng, 16, 16, 16)
        with GemmSession(policy=POLICY) as s:
            s.multiply(a, b)
            s.multiply(a, b)
            st_ = s.stats()
            assert not hasattr(st_, "fused_packs")
            assert st_.convert_seconds > 0.0
            assert 0.0 < st_.convert_fraction < 1.0

    def test_idle_session_fraction_is_zero(self):
        with GemmSession() as s:
            st_ = s.stats()
            assert st_.convert_seconds == 0.0
            assert st_.convert_fraction == 0.0


class TestAccumulateCap:
    def test_session_kwarg_sets_global_cap(self):
        old = get_accumulate_cap()
        try:
            with GemmSession(accumulate_cap=4096):
                assert get_accumulate_cap() == 4096
        finally:
            set_accumulate_cap(old)


class TestKernelRegistry:
    def test_registered_kernel_selectable_everywhere(self, rng):
        calls = {"n": 0}

        def counting(a, b, out, accumulate=False):
            calls["n"] += 1
            return leaf_matmul(a, b, out, accumulate)

        register_kernel("counting-test", counting)
        try:
            a, b = _operands(rng, 16, 16, 16)
            with GemmSession(policy=POLICY) as s:
                c = s.multiply(a, b, kernel="counting-test")
                assert np.allclose(c, a @ b)
                assert calls["n"] > 0

                calls["n"] = 0
                outs = s.multiply_many(
                    [(a, b), (a, b)], kernel="counting-test"
                )
                assert all(np.allclose(o, a @ b) for o in outs)
                assert calls["n"] > 0  # loop-batched, same arithmetic

            with pytest.raises(KernelError, match="replace=True"):
                register_kernel("counting-test", counting)
            register_kernel("counting-test", counting, replace=True)
        finally:
            KERNELS.pop("counting-test", None)

    def test_unknown_kernel_lists_registered_backends(self):
        register_kernel("ephemeral-test", leaf_matmul, replace=True)
        try:
            with pytest.raises(KernelError) as ei:
                get_kernel("no-such-kernel")
            msg = str(ei.value)
            for name in ("numpy", "blocked", "naive", "mixed", "numba",
                         "ephemeral-test"):
                assert name in msg
        finally:
            KERNELS.pop("ephemeral-test", None)
        with pytest.raises(KernelError, match="registered backends"):
            GemmSession(kernel="no-such-kernel")

    def test_mixed_kernel_by_name(self, rng):
        a, b = _operands(rng, 32, 32, 32)
        with GemmSession(policy=POLICY) as s:
            c = s.multiply(a, b, kernel="mixed")
        # float32 storage, float64 accumulation: close but not exact.
        ref = a @ b
        assert np.allclose(c, ref, rtol=5e-4, atol=5e-4)
        assert not np.array_equal(c, ref)

    def test_numba_name_degrades_without_numba(self, rng):
        if HAVE_NUMBA:  # pragma: no cover - numba not in the test image
            pytest.skip("numba installed; fallback path not reachable")
        assert get_kernel("numba") is leaf_matmul
        a, b = _operands(rng, 16, 16, 16)
        with GemmSession(policy=POLICY) as s:
            assert _bits(s.multiply(a, b, kernel="numba")) == _bits(
                s.multiply(a, b, kernel="numpy")
            )

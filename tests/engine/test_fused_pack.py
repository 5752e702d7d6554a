"""Engine-level tests of fused convert-and-add packing + the kernel registry.

The load-bearing property: a fused plan produces *bitwise identical*
results to the two-pass plan on every execution path — all three memory
schedules — because packing performs the same floating-point additions
on the same values, merely sourced from the dense operand instead of
the converted quadrants.  Stacked batches never fuse.  The trace
contract then proves the fusion actually happened: top-level add passes
disappear and four ``pack`` events take their place.
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
from repro.engine import GemmSession
from repro.errors import KernelError
from repro.observe import validate_trace

# Forces tile 8 / depth >= 1 on the small sizes hypothesis explores, so
# the fused path is actually exercised (default policy truncates to
# depth 0 below n=65).
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


class TestBitIdentity:
    @settings(max_examples=40, deadline=None)
    @given(m=dims, k=dims, n=dims, seed=seeds, memory=memories,
           dtype=dtypes)
    def test_fused_matches_two_pass(self, m, k, n, seed, memory, dtype):
        rng = np.random.default_rng(seed)
        a, b = _operands(rng, m, k, n, dtype)
        with GemmSession(policy=POLICY, fused_pack="always",
                         memory=memory) as s:
            plan = s.plan(m, k, n)
            assert plan._fused, "grid geometry must trip the fused gate"
            c1 = s.multiply(a, b)
            c1b = s.multiply(a, b)  # warm (cached-plan) rerun
        with GemmSession(policy=POLICY, fused_pack=False,
                         memory=memory) as s:
            assert not s.plan(m, k, n)._fused
            c0 = s.multiply(a, b)
        assert _bits(c1) == _bits(c0)
        assert _bits(c1b) == _bits(c0)

    @settings(max_examples=25, deadline=None)
    @given(n=dims, nb=batch_sizes, seed=seeds,
           memory=st.sampled_from(["classic", "two_temp"]), dtype=dtypes)
    def test_batch_fused_matches_two_pass(self, n, nb, seed, memory, dtype):
        # Stacked batches never fuse; each item still matches its fused
        # per-item product bit for bit.
        rng = np.random.default_rng(seed)
        pairs = [_operands(rng, n, n, n, dtype) for _ in range(nb)]
        with GemmSession(policy=POLICY, fused_pack="always",
                         memory=memory) as s:
            batched = s.multiply_many(pairs)
            before = s.stats()
            if before.batched_executes:
                assert before.fused_packs == 0
            fused = [s.multiply(a, b) for a, b in pairs]
            assert s.stats().fused_packs - before.fused_packs == 4 * nb
        for c1, c0 in zip(batched, fused):
            assert _bits(c1) == _bits(c0)

    @pytest.mark.parametrize("memory", ["classic", "ip_overwrite"])
    def test_transposes_alpha_beta(self, rng, memory):
        # classic relabels transposed operands (fusion steps aside);
        # ip_overwrite packs straight from the transposed dense source.
        a = rng.standard_normal((20, 16))
        b = rng.standard_normal((24, 20))
        c = rng.standard_normal((16, 24))
        kw = dict(op_a="t", op_b="t", alpha=0.5, beta=-1.5)
        with GemmSession(policy=POLICY, fused_pack="always",
                         memory=memory) as s:
            c1 = s.multiply(a, b, c.copy(), **kw)
        with GemmSession(policy=POLICY, fused_pack=False, memory=memory) as s:
            c0 = s.multiply(a, b, c.copy(), **kw)
        assert _bits(c1) == _bits(c0)


# Top-level "add" events each path loses to fusion: the four S1/S3/T1/T3
# passes, since every addition pass emits exactly one event.
ADD_DELTAS = [
    ("classic", None, 4),
    ("two_temp", None, 4),
    ("ip_overwrite", None, 4),
    ("classic", "sequential", 4),
]


class TestTraceContract:
    def _events(self, rng, memory, schedule, fused):
        a, b = _operands(rng, 16, 16, 16)
        with GemmSession(policy=POLICY, trace=True, memory=memory,
                         fused_pack="always" if fused else False) as s:
            s.multiply(a, b, schedule=schedule)
            validate_trace(s.trace.dump())
            return s.trace.events()

    @pytest.mark.parametrize("memory,schedule,delta", ADD_DELTAS)
    def test_pack_events_replace_top_level_adds(self, rng, memory, schedule,
                                                delta):
        ev_f = self._events(rng, memory, schedule, fused=True)
        ev_u = self._events(rng, memory, schedule, fused=False)
        packs_f = [ev for ev in ev_f if ev.kind == "pack"]
        assert len(packs_f) == 4
        assert {ev.label for ev in packs_f} == {"S1", "S3", "T1", "T3"}
        assert all(
            ev.data and ev.data.get("seconds") is not None for ev in packs_f
        )
        assert not any(ev.kind == "pack" for ev in ev_u)
        adds_f = sum(ev.kind == "add" for ev in ev_f)
        adds_u = sum(ev.kind == "add" for ev in ev_u)
        assert adds_u - adds_f == delta

    def test_fused_convert_events_flagged(self, rng):
        ev = self._events(rng, "classic", None, fused=True)
        conv = {e.label: e for e in ev if e.kind == "convert"}
        assert {"a", "b", "c"} <= set(conv)
        for side in ("a", "b"):
            assert conv[side].data and conv[side].data.get("fused") is True

class TestGate:
    def test_default_requires_table_depth(self):
        # Default fused_pack=True follows the table heuristic: elementwise
        # gathers only win at depth >= CONVERT_TABLE_MIN_DEPTH.
        with GemmSession() as s:
            assert not s.plan(96, 96, 96)._fused  # depth 2
            assert s.plan(513, 513, 513)._fused  # depth 4
        with GemmSession(policy=POLICY) as s:
            assert not s.plan(16, 16, 16)._fused  # depth 1

    def test_always_fuses_any_recursion(self):
        with GemmSession(policy=POLICY, fused_pack="always") as s:
            assert s.plan(16, 16, 16)._fused

    def test_false_never_fuses(self):
        with GemmSession(fused_pack=False) as s:
            assert not s.plan(513, 513, 513)._fused

    def test_invalid_value_rejected(self):
        with pytest.raises(ValueError, match="fused_pack"):
            GemmSession(fused_pack="maybe")

    def test_strassen_variant_not_fused(self):
        # Fusion encodes the Winograd S/T schedule specifically.
        with GemmSession(fused_pack="always", policy=POLICY) as s:
            assert not s.plan(16, 16, 16, variant="strassen")._fused


class TestStats:
    def test_fused_pack_and_convert_counters(self, rng):
        a, b = _operands(rng, 16, 16, 16)
        with GemmSession(policy=POLICY, fused_pack="always") as s:
            s.multiply(a, b)
            s.multiply(a, b)
            st_ = s.stats()
            assert st_.fused_packs == 8  # 4 packs per execution
            assert st_.convert_seconds >= 0.0
            assert 0.0 <= st_.convert_fraction <= 1.0
            s.multiply_many([_operands(rng, 16, 16, 16) for _ in range(3)])
            assert s.stats().fused_packs == 8  # batches never fuse

    def test_unfused_counts_zero(self, rng):
        a, b = _operands(rng, 16, 16, 16)
        with GemmSession(policy=POLICY, fused_pack=False) as s:
            s.multiply(a, b)
            assert s.stats().fused_packs == 0

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

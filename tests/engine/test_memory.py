"""Engine integration of the memory-schedule dimension."""

import numpy as np
import pytest

from repro.engine import GemmSession, MEMORY_SCHEDULES
from repro.errors import PlanError


def square(rng, n):
    a = np.asfortranarray(rng.standard_normal((n, n)))
    b = np.asfortranarray(rng.standard_normal((n, n)))
    return a, b


class TestPlanKeyMemory:
    def test_memory_is_part_of_the_key(self, rng):
        with GemmSession() as s:
            p1 = s.plan(64, 64, 64)
            p2 = s.plan(64, 64, 64, memory="two_temp")
            p3 = s.plan(64, 64, 64, memory="two_temp")
            assert p1 is not p2
            assert p2 is p3
            assert p1.key.memory == "classic"
            assert p2.key.memory == "two_temp"

    def test_session_default_memory(self, rng):
        with GemmSession(memory="two_temp") as s:
            assert s.plan(32, 32, 32).key.memory == "two_temp"
            assert s.plan(32, 32, 32, memory="classic").key.memory == "classic"

    def test_unknown_memory_rejected(self):
        with GemmSession() as s:
            with pytest.raises(PlanError):
                s.plan(32, 32, 32, memory="frugal")
        with pytest.raises(PlanError):
            GemmSession(memory="frugal")

    def test_memory_requires_winograd(self):
        with GemmSession() as s:
            with pytest.raises(PlanError):
                s.plan(32, 32, 32, variant="strassen", memory="two_temp")

    def test_ip_rejects_task_schedule(self):
        with GemmSession() as s:
            with pytest.raises(PlanError):
                s.plan(64, 64, 64, schedule="tasks:1", memory="ip_overwrite")


class TestResultsAcrossSchedules:
    @pytest.mark.parametrize("memory", MEMORY_SCHEDULES)
    def test_bit_identical_to_classic(self, rng, memory):
        a, b = square(rng, 96)
        with GemmSession() as s:
            ref = s.multiply(a, b)
            got = s.multiply(a, b, memory=memory)
            assert np.array_equal(ref, got)

    def test_dense_operands_survive_ip(self, rng):
        # ip_overwrite clobbers the plan's internal Morton copies only.
        a, b = square(rng, 48)
        a_snap, b_snap = a.copy(), b.copy()
        with GemmSession(memory="ip_overwrite") as s:
            s.multiply(a, b)
            assert np.array_equal(a, a_snap)
            assert np.array_equal(b, b_snap)

    def test_ip_repeated_execution_stays_correct(self, rng):
        # Regression: ip executions leave garbage in the operand pads;
        # the plan must re-zero before the next conversion.  Size 50 pads
        # at every reasonable tiling.
        with GemmSession(memory="ip_overwrite") as s:
            for _ in range(3):
                a, b = square(rng, 50)
                assert np.allclose(s.multiply(a, b), a @ b)


class TestScratchAccounting:
    def test_two_temp_plan_scratch_halved(self):
        with GemmSession() as s:
            classic = s.plan(256, 256, 256)
            lean = s.plan(256, 256, 256, memory="two_temp")
            ip = s.plan(256, 256, 256, memory="ip_overwrite")
            assert classic.scratch_bytes > 0
            assert lean.scratch_bytes * 2 == classic.scratch_bytes
            assert ip.scratch_bytes == 0

    def test_scratch_bytes_closed_form(self):
        # Geometric series over levels: at child depth d the quarter
        # buffers hold (tile << d)^2 elements per operand shape.
        with GemmSession() as s:
            for memory, per_level in (
                ("classic", lambda e: 4 * e),       # S + T + P + Q
                ("two_temp", lambda e: 2 * e),      # max(|A|,|C|) + |B|
                ("ip_overwrite", lambda e: 0),
            ):
                plan = s.plan(256, 256, 256, memory=memory)
                tm, tk, tn = plan.tilings
                assert tm.tile == tk.tile == tn.tile  # square problem
                expect = sum(
                    per_level(((tm.tile << d) ** 2) * 8)
                    for d in range(tm.depth)
                )
                assert plan.scratch_bytes == expect

    def test_session_stats_fields(self, rng):
        a, b = square(rng, 64)
        with GemmSession() as s:
            s.multiply(a, b, memory="two_temp")
            st = s.stats()
            assert st.scratch_bytes_allocated > 0
            assert st.peak_scratch_bytes > 0
            assert st.peak_scratch_bytes <= st.scratch_bytes_allocated
            assert st.fused_adds > 0

    def test_classic_reports_no_fused_adds(self, rng):
        a, b = square(rng, 64)
        with GemmSession() as s:
            s.multiply(a, b)
            assert s.stats().fused_adds == 0

    def test_clear_resets_live_scratch_not_peak(self, rng):
        a, b = square(rng, 64)
        with GemmSession() as s:
            s.multiply(a, b)
            peak = s.stats().peak_scratch_bytes
            s.clear()
            st = s.stats()
            assert st.peak_scratch_bytes == peak
            assert st.scratch_bytes_allocated >= peak


class TestMortonPooledOutput:
    def test_pooled_output_reused(self, rng):
        from repro.core.truncation import TruncationPolicy
        from repro.layout.convert import dense_to_morton
        from repro.layout.matrix import MortonMatrix

        tm, tk, tn = TruncationPolicy.coerce(None).plan(64, 64, 64)
        a, b = square(rng, 64)
        amm = MortonMatrix.zeros(64, 64, tm, tk)
        bmm = MortonMatrix.zeros(64, 64, tk, tn)
        dense_to_morton(a, amm)
        dense_to_morton(b, bmm)
        with GemmSession() as s:
            out1 = s.multiply_morton(amm, bmm)
            before = s.stats().buffers_allocated
            out2 = s.multiply_morton(amm, bmm)
            # Same pooled buffer, no new allocations on the warm path.
            assert np.shares_memory(out1.buf, out2.buf)
            assert s.stats().buffers_allocated == before

    def test_output_follows_operand_dtype(self, rng):
        from repro.core.truncation import TruncationPolicy
        from repro.layout.convert import dense_to_morton
        from repro.layout.matrix import MortonMatrix

        tm, tk, tn = TruncationPolicy.coerce(None).plan(64, 64, 64)
        a, b = square(rng, 64)
        amm = MortonMatrix.zeros(64, 64, tm, tk, dtype=np.float32)
        bmm = MortonMatrix.zeros(64, 64, tk, tn, dtype=np.float32)
        dense_to_morton(a, amm)
        dense_to_morton(b, bmm)
        with GemmSession() as s:
            out = s.multiply_morton(amm, bmm)
            assert out.buf.dtype == np.float32
            assert np.allclose(out.to_dense(), a @ b, rtol=1e-4, atol=1e-3)
            # float64 operands of the same geometry get their own pool entry.
            out64 = s.multiply_morton(
                MortonMatrix(amm.buf.astype(np.float64), 64, 64, tm.tile,
                             tk.tile, tm.depth),
                MortonMatrix(bmm.buf.astype(np.float64), 64, 64, tk.tile,
                             tn.tile, tk.depth),
            )
            assert out64.buf.dtype == np.float64
            assert out.buf.dtype == np.float32

    def test_core_multiply_morton_uses_pool(self, rng):
        from repro.core.truncation import TruncationPolicy
        from repro.core.winograd import multiply_morton
        from repro.engine import reset_default_session
        from repro.layout.convert import dense_to_morton
        from repro.layout.matrix import MortonMatrix

        tm, tk, tn = TruncationPolicy.coerce(None).plan(48, 48, 48)
        a, b = square(rng, 48)
        amm = MortonMatrix.zeros(48, 48, tm, tk)
        bmm = MortonMatrix.zeros(48, 48, tk, tn)
        dense_to_morton(a, amm)
        dense_to_morton(b, bmm)
        session = reset_default_session()
        try:
            out1 = multiply_morton(amm, bmm)
            assert np.allclose(out1.to_dense(), a @ b)
            out2 = multiply_morton(amm, bmm)
            assert np.shares_memory(out1.buf, out2.buf)
        finally:
            reset_default_session()

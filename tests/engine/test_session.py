"""Unit tests for the plan-caching GEMM engine (`repro.engine`)."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.modgemm import PhaseTimings, modgemm
from repro.core.truncation import TruncationPolicy
from repro.engine import GemmSession, default_session, reset_default_session
from repro.errors import ShapeError

from ..conftest import assert_gemm_close


@pytest.fixture
def session() -> GemmSession:
    return GemmSession()


class TestPlanCacheAccounting:
    def test_first_call_misses_then_hits(self, rng, session):
        a = rng.standard_normal((100, 100))
        b = rng.standard_normal((100, 100))
        session.multiply(a, b)
        s = session.stats()
        assert (s.plan_misses, s.plan_hits) == (1, 0)
        session.multiply(a, b)
        session.multiply(a, b)
        s = session.stats()
        assert (s.plan_misses, s.plan_hits) == (1, 2)
        assert s.executes == 3
        assert s.buffers_reused == 2

    def test_distinct_geometries_get_distinct_plans(self, rng, session):
        session.multiply(rng.standard_normal((60, 60)), rng.standard_normal((60, 60)))
        session.multiply(rng.standard_normal((70, 70)), rng.standard_normal((70, 70)))
        s = session.stats()
        assert s.plan_misses == 2 and s.plans_cached == 2

    def test_transpose_ops_are_part_of_the_key(self, rng, session):
        a = rng.standard_normal((80, 80))
        b = rng.standard_normal((80, 80))
        session.multiply(a, b)
        session.multiply(a, b, op_a="t")
        assert session.stats().plan_misses == 2

    def test_policy_and_variant_part_of_the_key(self, rng, session):
        a = rng.standard_normal((80, 80))
        b = rng.standard_normal((80, 80))
        session.multiply(a, b, variant="winograd")
        session.multiply(a, b, variant="strassen")
        session.multiply(a, b, policy=TruncationPolicy.fixed(32))
        assert session.stats().plan_misses == 3

    def test_hit_path_allocates_no_new_buffers(self, rng, session):
        a = rng.standard_normal((90, 90))
        b = rng.standard_normal((90, 90))
        session.multiply(a, b)
        allocated = session.stats().buffers_allocated
        assert allocated > 0
        for _ in range(5):
            session.multiply(a, b)
        assert session.stats().buffers_allocated == allocated

    def test_bytes_pooled_positive_and_drops_on_clear(self, rng, session):
        session.multiply(rng.standard_normal((64, 64)), rng.standard_normal((64, 64)))
        assert session.stats().bytes_pooled > 0
        session.clear()
        assert session.stats().bytes_pooled == 0

    def test_aggregate_timings_accumulate(self, rng, session):
        a = rng.standard_normal((100, 100))
        b = rng.standard_normal((100, 100))
        session.multiply(a, b)
        t1 = session.stats().timings.total
        session.multiply(a, b)
        t2 = session.stats().timings.total
        assert 0 < t1 < t2


class TestLruEviction:
    def test_capacity_bounds_cached_plans(self, rng):
        session = GemmSession(capacity=2)
        for n in (40, 50, 60, 70):
            session.multiply(
                rng.standard_normal((n, n)), rng.standard_normal((n, n))
            )
        s = session.stats()
        assert s.plans_cached <= 2
        assert s.plan_evictions >= 2

    def test_lru_order_evicts_least_recent(self, rng):
        session = GemmSession(capacity=2)
        mats = {
            n: (rng.standard_normal((n, n)), rng.standard_normal((n, n)))
            for n in (40, 50, 60)
        }
        session.multiply(*mats[40])
        session.multiply(*mats[50])
        session.multiply(*mats[40])   # refresh 40 -> 50 is now LRU
        session.multiply(*mats[60])   # evicts 50
        before = session.stats().plan_misses
        session.multiply(*mats[40])   # still cached
        assert session.stats().plan_misses == before
        session.multiply(*mats[50])   # was evicted -> recompiles
        assert session.stats().plan_misses == before + 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            GemmSession(capacity=0)


class TestCorrectness:
    @pytest.mark.parametrize(
        "dims",
        [(1, 1, 1), (5, 3, 7), (64, 64, 64), (65, 65, 65), (150, 200, 170)],
    )
    def test_matches_numpy_repeatedly(self, rng, session, dims):
        m, k, n = dims
        for _ in range(3):
            a = rng.standard_normal((m, k))
            b = rng.standard_normal((k, n))
            assert_gemm_close(session.multiply(a, b), a @ b)

    def test_bit_identical_to_modgemm(self, rng, session):
        cases = [
            dict(dims=(150, 150, 150)),
            dict(dims=(100, 80, 120)),
            dict(dims=(80, 80, 80), op_a="t"),
            dict(dims=(512, 64, 512)),          # panel path
            dict(dims=(97, 97, 97), variant="strassen"),
        ]
        for case in cases:
            m, k, n = case.pop("dims")
            op_a = case.get("op_a", "n")
            shape_a = (k, m) if op_a == "t" else (m, k)
            a = rng.standard_normal(shape_a)
            b = rng.standard_normal((k, n))
            expected = modgemm(a, b, **case)
            got = session.multiply(a, b, **case)
            assert np.array_equal(got, expected)
            # and again through the warm plan
            assert np.array_equal(session.multiply(a, b, **case), expected)

    def test_blas_contract_alpha_beta_inplace(self, rng, session):
        a = rng.standard_normal((40, 30))
        b = rng.standard_normal((30, 50))
        c0 = rng.standard_normal((40, 50))
        c = c0.copy()
        out = session.multiply(a, b, c=c, alpha=0.5, beta=2.0)
        assert out is c
        assert_gemm_close(out, 0.5 * (a @ b) + 2.0 * c0)

    def test_pooled_buffers_do_not_leak_between_calls(self, rng, session):
        """A second multiply must not see residue of the first's operands."""
        a1 = rng.standard_normal((65, 65))
        b1 = rng.standard_normal((65, 65))
        session.multiply(a1, b1)
        a2 = rng.standard_normal((65, 65))
        b2 = rng.standard_normal((65, 65))
        assert_gemm_close(session.multiply(a2, b2), a2 @ b2)

    def test_timings_filled(self, rng, session):
        a = rng.standard_normal((150, 150))
        b = rng.standard_normal((150, 150))
        t = PhaseTimings()
        session.multiply(a, b, timings=t)
        assert t.to_morton > 0 and t.compute > 0 and t.from_morton > 0

    def test_panel_count_reported(self, rng, session):
        a = rng.standard_normal((512, 64))
        b = rng.standard_normal((64, 512))
        t = PhaseTimings()
        session.multiply(a, b, timings=t)
        assert t.panels > 1


class TestCompiledPlan:
    def test_explicit_plan_execute(self, rng, session):
        plan = session.plan(100, 100, 100)
        a = rng.standard_normal((100, 100))
        b = rng.standard_normal((100, 100))
        assert_gemm_close(plan.execute(a, b), a @ b)

    def test_plan_rejects_mismatched_shapes(self, rng, session):
        plan = session.plan(100, 100, 100)
        with pytest.raises(ShapeError):
            plan.execute(rng.standard_normal((64, 64)), rng.standard_normal((64, 64)))

    def test_plan_freezes_tilings(self, session):
        plan = session.plan(513, 513, 513)
        tm, tk, tn = plan.tilings
        expected = TruncationPolicy.dynamic().plan(513, 513, 513)
        assert (tm, tk, tn) == expected

    def test_plan_key_identity_gives_same_object(self, session):
        assert session.plan(100, 100, 100) is session.plan(100, 100, 100)


class TestMultiplyMany:
    def test_results_in_order(self, rng, session):
        pairs = []
        refs = []
        for n in (40, 50, 60, 40, 50):
            a = rng.standard_normal((n, n))
            b = rng.standard_normal((n, n))
            pairs.append((a, b))
            refs.append(a @ b)
        outs = session.multiply_many(pairs)
        assert len(outs) == len(refs)
        for out, ref in zip(outs, refs):
            assert_gemm_close(out, ref)

    def test_in_place_c_items(self, rng, session):
        a = rng.standard_normal((30, 30))
        b = rng.standard_normal((30, 30))
        c0 = rng.standard_normal((30, 30))
        c = c0.copy()
        outs = session.multiply_many([(a, b, c)], alpha=1.0, beta=1.0)
        assert outs[0] is c
        assert_gemm_close(c, a @ b + c0)

    def test_same_geometry_batch_reuses_one_plan(self, rng, session):
        pairs = [
            (rng.standard_normal((64, 64)), rng.standard_normal((64, 64)))
            for _ in range(6)
        ]
        outs = session.multiply_many(pairs)
        for (a, b), out in zip(pairs, outs):
            assert_gemm_close(out, a @ b)
        s = session.stats()
        assert s.plan_misses == 1 and s.plans_cached == 1

    def test_concurrent_sessions_do_not_corrupt_buffers(self, rng):
        """Hammer one session from many threads; all products must be exact."""
        session = GemmSession()
        n_threads, per_thread = 6, 4
        a = rng.standard_normal((96, 96))
        b = rng.standard_normal((96, 96))
        expected = session.multiply(a, b)
        errors: list[Exception] = []

        def worker() -> None:
            try:
                for _ in range(per_thread):
                    got = session.multiply(a, b)
                    if not np.array_equal(got, expected):
                        raise AssertionError("corrupted pooled buffers")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert session.stats().executes == 1 + n_threads * per_thread


class TestDefaultSession:
    def test_modgemm_uses_default_session(self, rng):
        sess = reset_default_session()
        a = rng.standard_normal((64, 64))
        b = rng.standard_normal((64, 64))
        modgemm(a, b)
        modgemm(a, b)
        s = sess.stats()
        assert s.plan_misses == 1 and s.plan_hits == 1

    def test_reset_replaces_the_session(self):
        first = default_session()
        second = reset_default_session()
        assert first is not second
        assert default_session() is second

    def test_session_and_modgemm_bit_identical(self, rng):
        reset_default_session()
        session = GemmSession()
        a = rng.standard_normal((120, 120))
        b = rng.standard_normal((120, 120))
        assert np.array_equal(session.multiply(a, b), modgemm(a, b))


class TestConversionCalibration:
    def test_conversion_calibration_counters(self, rng):
        # 513 -> tile 33 / depth 4: tables are built, and after the
        # exec-1 baseline the indexed path is tried on exec 2.  With
        # fused packing (the default) the a/b sides always gather through
        # the fused tables, so only the c site calibrates loop-vs-indexed.
        a = rng.standard_normal((513, 513))
        b = rng.standard_normal((513, 513))
        with GemmSession() as s:
            plan = s.plan(513, 513, 513)
            assert set(plan._sites) == {"c"}
            assert set(plan._ftables) == {"a", "b"}
            ref = s.multiply(a, b)
            assert s.stats().indexed_conversions == 0  # baseline pass
            c2 = s.multiply(a, b)
            assert np.array_equal(c2, ref)  # paths are bit-identical
            st = s.stats()
            assert st.indexed_conversions == 1  # trial pass, c site
            for _ in range(2):
                assert np.array_equal(s.multiply(a, b), ref)

    def test_conversion_calibration_counters_unfused(self, rng):
        # fused_pack=False restores the legacy three-site calibration.
        a = rng.standard_normal((513, 513))
        b = rng.standard_normal((513, 513))
        with GemmSession(fused_pack=False) as s:
            plan = s.plan(513, 513, 513)
            assert set(plan._sites) == {"a", "b", "c"}
            assert plan._ftables == {}
            ref = s.multiply(a, b)
            assert s.stats().indexed_conversions == 0  # baseline pass
            c2 = s.multiply(a, b)
            assert np.array_equal(c2, ref)  # paths are bit-identical
            st = s.stats()
            assert st.indexed_conversions == 3  # trial pass, all sites
            for _ in range(2):
                assert np.array_equal(s.multiply(a, b), ref)

    def test_shallow_plans_skip_tables(self):
        with GemmSession() as s:
            plan = s.plan(96, 96, 96)  # depth < CONVERT_TABLE_MIN_DEPTH
            assert plan._sites == {}


class TestCloseDuringMultiply:
    """close() racing in-flight multiplies must neither hang nor corrupt.

    An in-flight call keeps its plan object (with that plan's lock and
    buffers) while close() drops the cache, so it completes correctly;
    the next call recompiles.
    """

    @pytest.mark.parametrize("delay", [0.0, 0.002, 0.01])
    def test_close_concurrent_with_multiply(self, rng, delay):
        import time

        a = rng.standard_normal((129, 129))
        b = rng.standard_normal((129, 129))
        expected = a @ b
        session = GemmSession()
        failures: list[Exception] = []

        def work() -> None:
            try:
                for _ in range(6):
                    assert_gemm_close(session.multiply(a, b), expected)
            except Exception as exc:  # pragma: no cover - failure path
                failures.append(exc)

        t = threading.Thread(target=work)
        t.start()
        time.sleep(delay)
        session.close()
        t.join(timeout=60)
        assert not t.is_alive(), "multiply hung after close()"
        assert not failures, failures
        # The session stays usable: a later multiply recompiles its plan.
        assert_gemm_close(session.multiply(a, b), expected)
        session.close()


class TestMortonWorkspacePool:
    def test_pooled_workspace_reused(self, rng):
        from repro.layout.matrix import MortonMatrix
        from repro.layout.padding import select_common_tiling

        session = GemmSession()
        tm, tk, tn = select_common_tiling((100, 100, 100))
        a = rng.standard_normal((100, 100))
        b = rng.standard_normal((100, 100))
        a_mm = MortonMatrix.from_dense(a, tilings=(tm, tk))
        b_mm = MortonMatrix.from_dense(b, tilings=(tk, tn))
        out1 = session.multiply_morton(a_mm, b_mm)
        out2 = session.multiply_morton(a_mm, b_mm)
        assert_gemm_close(out1.to_dense(), a @ b)
        assert np.array_equal(out1.to_dense(), out2.to_dense())
        s = session.stats()
        assert s.plan_misses == 1 and s.plan_hits == 1

"""Unit tests for the MODGEMM public entry point (full dgemm semantics)."""

import numpy as np
import pytest

from repro.core.modgemm import PhaseTimings, modgemm, modgemm_morton
from repro.core.truncation import TruncationPolicy
from repro.layout.matrix import MortonMatrix
from repro.layout.padding import select_common_tiling

from ..conftest import assert_gemm_close


class TestPlainProduct:
    @pytest.mark.parametrize(
        "dims",
        [
            (1, 1, 1),
            (5, 3, 7),
            (64, 64, 64),
            (65, 65, 65),
            (150, 150, 150),
            (150, 200, 170),
            (513, 513, 513),
        ],
    )
    def test_matches_numpy(self, rng, dims):
        m, k, n = dims
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        assert_gemm_close(modgemm(a, b), a @ b)

    def test_accepts_c_and_f_order(self, rng):
        a = rng.standard_normal((70, 70))
        b = rng.standard_normal((70, 70))
        ref = a @ b
        assert_gemm_close(modgemm(np.ascontiguousarray(a), np.asfortranarray(b)), ref)

    def test_result_reproducible(self, rng):
        a = rng.standard_normal((100, 100))
        b = rng.standard_normal((100, 100))
        assert np.array_equal(modgemm(a, b), modgemm(a, b))

    def test_integer_inputs_upcast(self, rng):
        a = rng.integers(-5, 5, size=(80, 80))
        b = rng.integers(-5, 5, size=(80, 80))
        out = modgemm(a, b)
        assert out.dtype == np.float64
        assert np.array_equal(out, (a @ b).astype(np.float64))

    def test_list_inputs_accepted(self):
        out = modgemm([[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0], [7.0, 8.0]])
        assert np.allclose(out, [[19.0, 22.0], [43.0, 50.0]])


class TestBlasSemantics:
    def test_alpha(self, rng):
        a = rng.standard_normal((40, 40))
        b = rng.standard_normal((40, 40))
        assert_gemm_close(modgemm(a, b, alpha=-2.0), -2.0 * (a @ b))

    def test_beta_accumulation_in_place(self, rng):
        a = rng.standard_normal((40, 30))
        b = rng.standard_normal((30, 50))
        c0 = rng.standard_normal((40, 50))
        c = c0.copy()
        out = modgemm(a, b, c=c, alpha=0.5, beta=2.0)
        assert out is c
        assert_gemm_close(out, 0.5 * (a @ b) + 2.0 * c0)

    def test_beta_zero_with_c(self, rng):
        a = rng.standard_normal((20, 20))
        b = rng.standard_normal((20, 20))
        c = np.full((20, 20), np.nan)  # beta=0 must ignore old C entirely
        out = modgemm(a, b, c=c, beta=0.0)
        assert_gemm_close(out, a @ b)

    def test_transposes(self, rng):
        a = rng.standard_normal((80, 60))
        b = rng.standard_normal((90, 80))
        out = modgemm(a, b, op_a="t", op_b="t")
        assert_gemm_close(out, a.T @ b.T)

    def test_single_transpose(self, rng):
        a = rng.standard_normal((60, 80))
        b = rng.standard_normal((90, 80))
        assert_gemm_close(modgemm(a, b, op_b="t"), a @ b.T)

    def test_beta_without_c_rejected(self, rng):
        with pytest.raises(ValueError):
            modgemm(rng.standard_normal((4, 4)), rng.standard_normal((4, 4)), beta=1.0)


class TestRectangularPanels:
    @pytest.mark.parametrize(
        "dims",
        [
            (2048 // 8, 256 // 8, 256 // 8),  # well-behaved (sanity)
            (512, 64, 512),                   # ratio 8: panel path
            (100, 1, 100),                    # degenerate inner dimension
            (2, 1000, 2),                     # extreme lean/wide mix
            (257, 31, 900),
        ],
    )
    def test_matches_numpy(self, rng, dims):
        m, k, n = dims
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        assert_gemm_close(modgemm(a, b), a @ b)

    def test_panel_count_recorded(self, rng):
        a = rng.standard_normal((512, 64))
        b = rng.standard_normal((64, 512))
        t = PhaseTimings()
        modgemm(a, b, timings=t)
        assert t.panels > 1


class TestPoliciesAndVariants:
    def test_fixed_policy(self, rng):
        a = rng.standard_normal((150, 150))
        b = rng.standard_normal((150, 150))
        out = modgemm(a, b, policy=TruncationPolicy.fixed(32))
        assert_gemm_close(out, a @ b)

    def test_wide_dynamic_policy(self, rng):
        a = rng.standard_normal((300, 300))
        b = rng.standard_normal((300, 300))
        out = modgemm(a, b, policy=TruncationPolicy.dynamic(64, 256))
        assert_gemm_close(out, a @ b)

    def test_strassen_variant(self, rng):
        a = rng.standard_normal((150, 150))
        b = rng.standard_normal((150, 150))
        assert_gemm_close(modgemm(a, b, variant="strassen"), a @ b)

    def test_unknown_variant_rejected(self, rng):
        with pytest.raises(ValueError):
            modgemm(np.eye(4), np.eye(4), variant="coppersmith")

    def test_blocked_kernel(self, rng):
        a = rng.standard_normal((70, 70))
        b = rng.standard_normal((70, 70))
        assert_gemm_close(modgemm(a, b, kernel="blocked"), a @ b)


class TestTimings:
    def test_phases_populated(self, rng):
        a = rng.standard_normal((150, 150))
        b = rng.standard_normal((150, 150))
        t = PhaseTimings()
        modgemm(a, b, timings=t)
        assert t.to_morton > 0 and t.compute > 0 and t.from_morton > 0
        assert 0 < t.convert_fraction < 1
        assert abs(t.total - (t.to_morton + t.compute + t.from_morton)) < 1e-12

    def test_empty_timings_fraction(self):
        assert PhaseTimings().convert_fraction == 0.0


class TestMortonEntry:
    def test_preconverted_operands(self, rng):
        m = k = n = 150
        plan = select_common_tiling((m, k, n))
        tm, tk, tn = plan
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        a_mm = MortonMatrix.from_dense(a, tilings=(tm, tk))
        b_mm = MortonMatrix.from_dense(b, tilings=(tk, tn))
        c_mm = modgemm_morton(a_mm, b_mm)
        assert_gemm_close(c_mm.to_dense(), a @ b)

    def test_supplied_destination(self, rng):
        plan = select_common_tiling((100, 100, 100))
        tm, tk, tn = plan
        a = rng.standard_normal((100, 100))
        b = rng.standard_normal((100, 100))
        a_mm = MortonMatrix.from_dense(a, tilings=(tm, tk))
        b_mm = MortonMatrix.from_dense(b, tilings=(tk, tn))
        c_mm = MortonMatrix.empty(100, 100, tm, tn)
        out = modgemm_morton(a_mm, b_mm, c_mm)
        assert out is c_mm
        assert_gemm_close(c_mm.to_dense(), a @ b)

    def test_strassen_variant(self, rng):
        plan = select_common_tiling((100, 100, 100))
        tm, tk, tn = plan
        a = rng.standard_normal((100, 100))
        b = rng.standard_normal((100, 100))
        a_mm = MortonMatrix.from_dense(a, tilings=(tm, tk))
        b_mm = MortonMatrix.from_dense(b, tilings=(tk, tn))
        out = modgemm_morton(a_mm, b_mm, variant="strassen")
        assert_gemm_close(out.to_dense(), a @ b)

    def test_unknown_variant_rejected(self, rng):
        plan = select_common_tiling((64, 64, 64))
        tm, tk, tn = plan
        a_mm = MortonMatrix.zeros(64, 64, tm, tk)
        b_mm = MortonMatrix.zeros(64, 64, tk, tn)
        with pytest.raises(ValueError):
            modgemm_morton(a_mm, b_mm, variant="nope")

"""GemmSpec: the frozen operation spec and its end-to-end semantics.

Coercion forms, plan-key participation, the copy-free transpose relabel
(verified through trace convert counts), fused beta accumulation, and
the typed errors the redesigned surface promises (aliased outputs,
dtype-mismatched accumulates) on the sequential and batch paths.
"""

import numpy as np
import pytest

import repro
from repro import modgemm
from repro.engine import GemmSession, GemmSpec
from repro.errors import BatchItemError, PlanError, ShapeError

from ..conftest import assert_gemm_close


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


class TestGemmSpecCoercion:
    def test_defaults(self):
        s = GemmSpec()
        assert (s.alpha, s.beta, s.trans_a, s.trans_b, s.dtype) == (
            1.0, 0.0, False, False, "float64"
        )
        assert s.is_default
        assert s.np_dtype == np.dtype(np.float64)

    def test_coerce_none_and_passthrough(self):
        assert GemmSpec.coerce(None) == GemmSpec()
        s = GemmSpec(alpha=2.0, trans_b=True)
        assert GemmSpec.coerce(s) is s

    def test_coerce_dict_and_keyword_overrides(self):
        s = GemmSpec.coerce({"alpha": 2, "trans_a": "t", "dtype": "float32"})
        assert s.alpha == 2.0 and s.trans_a and s.dtype == "float32"
        # Explicit keywords override the base spec.
        s2 = GemmSpec.coerce(s, alpha=3.0, trans_a=False)
        assert s2.alpha == 3.0 and not s2.trans_a and s2.dtype == "float32"

    def test_op_spellings_and_trans_precedence(self):
        s = GemmSpec.coerce(None, op_a="t", op_b="notrans")
        assert s.trans_a and not s.trans_b
        # Boolean flags win over op spellings.
        s = GemmSpec.coerce(None, op_a="t", trans_a=False)
        assert not s.trans_a

    def test_malformed_values_raise_plan_error(self):
        with pytest.raises(PlanError):
            GemmSpec.coerce({"alpha": 1.0, "frobnicate": 2})
        with pytest.raises(PlanError):
            GemmSpec.coerce(None, op_a="sideways")
        with pytest.raises(PlanError):
            GemmSpec(dtype="int32")

    def test_str_form(self):
        assert "tn" in str(GemmSpec(trans_a=True))


class TestSpecInPlanKey:
    def test_distinct_specs_compile_distinct_plans(self, rng):
        a, b = rng.standard_normal((48, 48)), rng.standard_normal((48, 48))
        with GemmSession() as s:
            s.multiply(a, b)
            s.multiply(a, b, alpha=2.0)
            s.multiply(a, b, trans_a=True)
            stats = s.stats()
        assert stats.plan_misses == 3

    def test_same_spec_hits_cache(self, rng):
        a, b = rng.standard_normal((48, 48)), rng.standard_normal((48, 48))
        with GemmSession() as s:
            s.multiply(a, b, alpha=2.0, trans_b=True)
            s.multiply(a, b, alpha=2.0, trans_b=True)
            stats = s.stats()
        assert stats.plan_misses == 1 and stats.plan_hits >= 1

    def test_plan_accepts_spec_object(self):
        spec = GemmSpec(alpha=0.5, beta=1.0, trans_a=True)
        with GemmSession() as s:
            plan = s.plan(64, 64, 64, spec=spec)
            assert plan.key.spec == spec
            assert plan.key.spec.alpha == 0.5
            assert plan.key.spec.trans_a
            # The pre-spec key accessors are gone; the spec is the one source.
            assert not hasattr(plan.key, "op_a")
            assert not hasattr(plan.key, "dtype")

    def test_plan_executes_frozen_spec(self, rng):
        a = rng.standard_normal((64, 64))
        b = rng.standard_normal((64, 64))
        c0 = rng.standard_normal((64, 64))
        c = c0.copy()
        with GemmSession() as s:
            plan = s.plan(64, 64, 64, alpha=0.5, beta=2.0, trans_a=True)
            out = plan.execute(a, b, c=c)
        assert out is c
        assert_gemm_close(out, 0.5 * (a.T @ b) + 2.0 * c0)

    def test_execute_rejects_mismatched_scalars(self, rng):
        a, b = rng.standard_normal((32, 32)), rng.standard_normal((32, 32))
        with GemmSession() as s:
            plan = s.plan(32, 32, 32, alpha=2.0)
            with pytest.raises(PlanError):
                plan.execute(a, b, alpha=3.0)


class TestTransposeRelabel:
    def test_trans_adds_no_conversions(self, rng):
        # The tentpole's zero-copy promise: a transposed operand is a
        # Morton quadrant-swap relabel, so the traced convert count must
        # equal the non-transposed run's exactly.
        a = rng.standard_normal((96, 96))
        b = rng.standard_normal((96, 96))

        def convert_count(**kw):
            with GemmSession(trace=True) as s:
                s.multiply(a, b, **kw)
                return sum(
                    1 for e in s.trace.events() if e.kind == "convert"
                )

        base = convert_count()
        assert convert_count(trans_a=True) == base
        assert convert_count(trans_b=True) == base
        assert convert_count(trans_a=True, trans_b=True) == base

    def test_relabel_events_emitted(self, rng):
        a = rng.standard_normal((64, 64))
        b = rng.standard_normal((64, 64))
        with GemmSession(trace=True) as s:
            s.multiply(a, b, trans_a=True)
            labels = [
                e.label for e in s.trace.events() if e.kind == "relabel"
            ]
        assert labels == ["a"]

    def test_trans_results_match_reference(self, rng):
        a = rng.standard_normal((40, 72))
        b = rng.standard_normal((56, 40))
        out = modgemm(a, b, trans_a=True, trans_b=True)
        assert_gemm_close(out, a.T @ b.T)

    def test_op_strings_and_flags_agree_bitwise(self, rng):
        a = rng.standard_normal((64, 48))
        b = rng.standard_normal((64, 48))
        with GemmSession() as s:
            via_op = s.multiply(a, b, op_a="t")
            via_flag = s.multiply(a, b, trans_a=True)
        assert np.array_equal(via_op, via_flag)


class TestBetaAccumulate:
    def test_accumulate_event_emitted(self, rng):
        a = rng.standard_normal((64, 64))
        b = rng.standard_normal((64, 64))
        c = rng.standard_normal((64, 64))
        with GemmSession(trace=True) as s:
            s.multiply(a, b, c=c, beta=0.5)
            kinds = [e.kind for e in s.trace.events()]
        assert "accumulate" in kinds

    def test_beta_without_c_rejected(self, rng):
        a, b = rng.standard_normal((16, 16)), rng.standard_normal((16, 16))
        with pytest.raises(ValueError):
            modgemm(a, b, beta=1.0)

    def test_negative_zero_beta_is_zero_path(self, rng):
        a, b = rng.standard_normal((32, 32)), rng.standard_normal((32, 32))
        with GemmSession() as s:
            plain = s.multiply(a, b)
            c = rng.standard_normal((32, 32))
            out = s.multiply(a, b, c=c, beta=-0.0)
        assert np.array_equal(out, plain)


class TestAliasAndDtypeErrors:
    def test_out_aliasing_input_raises_shape_error(self, rng):
        a = rng.standard_normal((32, 32))
        b = rng.standard_normal((32, 32))
        with pytest.raises(ShapeError):
            modgemm(a, b, c=a, beta=1.0)
        with pytest.raises(ShapeError):
            modgemm(a, b, c=b[:, :], beta=1.0)

    def test_dtype_mismatch_names_both_dtypes_sequential(self, rng):
        a = rng.standard_normal((32, 32))
        b = rng.standard_normal((32, 32))
        c = rng.standard_normal((32, 32)).astype(np.float32)
        with pytest.raises(PlanError) as excinfo:
            modgemm(a, b, c=c, beta=1.0)
        msg = str(excinfo.value)
        assert "float32" in msg and "float64" in msg

    def test_dtype_mismatch_names_both_dtypes_batch(self, rng):
        a = rng.standard_normal((32, 32))
        b = rng.standard_normal((32, 32))
        good = rng.standard_normal((32, 32))
        bad = rng.standard_normal((32, 32)).astype(np.float32)
        with GemmSession() as s:
            with pytest.raises(BatchItemError) as excinfo:
                s.multiply_many(
                    [
                        {"a": a, "b": b, "c": good.copy()},
                        {"a": a, "b": b, "c": bad},
                    ],
                    beta=1.0,
                )
        assert excinfo.value.index == 1
        msg = str(excinfo.value)
        assert "float32" in msg and "float64" in msg


class TestModgemmSurface:
    def test_modgemm_trans_kwargs(self, rng):
        a = rng.standard_normal((48, 32))
        b = rng.standard_normal((48, 40))
        assert_gemm_close(modgemm(a, b, trans_a=True), a.T @ b)

    def test_modgemm_morton_full_spec(self, rng):
        from repro import MortonMatrix, TruncationPolicy
        from repro.layout.convert import dense_to_morton, morton_to_dense

        tm, tk, tn = TruncationPolicy.coerce(8).plan(48, 48, 48)
        x = rng.standard_normal((48, 48))
        y = rng.standard_normal((48, 48))

        def to_mm(arr, tr, tc):
            mm = MortonMatrix.zeros(arr.shape[0], arr.shape[1], tr, tc)
            return dense_to_morton(arr, mm)

        xm, ym = to_mm(x, tm, tk), to_mm(y, tk, tn)
        zm = repro.modgemm_morton(xm, ym, trans_a=True, alpha=2.0)
        assert_gemm_close(morton_to_dense(zm), 2.0 * (x.T @ y))

        base = morton_to_dense(repro.modgemm_morton(xm, ym)).copy()
        cm = to_mm(base, tm, tn)
        repro.modgemm_morton(xm, ym, c_mm=cm, beta=2.0)
        assert_gemm_close(morton_to_dense(cm), 3.0 * (x @ y))

    def test_modgemm_morton_guards(self, rng):
        from repro import MortonMatrix, TruncationPolicy
        from repro.layout.convert import dense_to_morton

        tm, tk, tn = TruncationPolicy.coerce(8).plan(32, 32, 32)
        mm = MortonMatrix.zeros(32, 32, tm, tk)
        dense_to_morton(rng.standard_normal((32, 32)), mm)
        with pytest.raises(PlanError):
            repro.modgemm_morton(mm, mm, trans_a=True, memory="ip_overwrite")
        with pytest.raises(PlanError):
            repro.modgemm_morton(mm, mm, beta=1.0)
        with pytest.raises(PlanError):
            repro.modgemm_morton(mm, mm, trans_a=True, variant="strassen")

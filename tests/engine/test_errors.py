"""Typed errors (`repro.errors`), API-consistency forms and removed options."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.blas.dgemm import GemmProblem
from repro.blas.kernels import get_kernel
from repro.core.truncation import TruncationPolicy
from repro.engine import GemmSession, resolve_variant
from repro.errors import (
    BatchItemError, KernelError, PlanError, ReproError, ShapeError,
)


class TestHierarchy:
    def test_all_subclass_valueerror(self):
        for exc in (ReproError, ShapeError, PlanError, KernelError):
            assert issubclass(exc, ValueError)
        for exc in (ShapeError, PlanError, KernelError):
            assert issubclass(exc, ReproError)

    def test_exported_at_top_level(self):
        assert repro.ShapeError is ShapeError
        assert repro.PlanError is PlanError
        assert repro.KernelError is KernelError


class TestShapeError:
    def test_non_2d_operands(self):
        with pytest.raises(ShapeError):
            GemmProblem.create(np.zeros(3), np.zeros((3, 3)))

    def test_inner_dim_mismatch(self):
        with pytest.raises(ShapeError):
            GemmProblem.create(np.zeros((3, 4)), np.zeros((5, 3)))

    def test_wrong_c_shape(self):
        with pytest.raises(ShapeError):
            GemmProblem.create(np.zeros((3, 3)), np.zeros((3, 3)), c=np.zeros((2, 2)))

    def test_modgemm_propagates(self):
        with pytest.raises(ShapeError):
            repro.modgemm(np.zeros((3, 4)), np.zeros((5, 3)))


class TestPlanError:
    def test_fixed_tile_validation(self):
        with pytest.raises(PlanError):
            TruncationPolicy.fixed(0)

    def test_conflict_aware_validation(self):
        with pytest.raises(PlanError):
            TruncationPolicy.conflict_aware(cache_bytes=0)

    def test_plan_rejects_degenerate_dims(self):
        with pytest.raises(PlanError):
            TruncationPolicy.dynamic().plan(0, 4, 4)

    def test_malformed_policy_string(self):
        with pytest.raises(PlanError):
            TruncationPolicy.coerce("fixed:nope")
        with pytest.raises(PlanError):
            TruncationPolicy.coerce("coppersmith")


class TestKernelError:
    def test_unknown_kernel_name(self):
        with pytest.raises(KernelError):
            get_kernel("turbo")

    def test_unknown_variant(self):
        with pytest.raises(KernelError):
            resolve_variant("coppersmith")

    def test_modgemm_propagates(self):
        with pytest.raises(KernelError):
            repro.modgemm(np.eye(4), np.eye(4), kernel="turbo")


class TestPolicyCoercion:
    def test_none_gives_default(self):
        from repro.core.truncation import DEFAULT_POLICY

        assert TruncationPolicy.coerce(None) is DEFAULT_POLICY

    def test_passthrough(self):
        p = TruncationPolicy.fixed(48)
        assert TruncationPolicy.coerce(p) is p

    def test_int_means_fixed(self):
        assert TruncationPolicy.coerce(48) == TruncationPolicy.fixed(48)

    def test_strings(self):
        assert TruncationPolicy.coerce("dynamic") == TruncationPolicy.dynamic()
        assert TruncationPolicy.coerce("fixed") == TruncationPolicy.fixed()
        assert TruncationPolicy.coerce("fixed:48") == TruncationPolicy.fixed(48)
        assert TruncationPolicy.coerce("dynamic:32,128") == \
            TruncationPolicy.dynamic(32, 128)

    def test_truncation_point(self):
        assert TruncationPolicy.fixed(48).truncation_point() == 48
        assert TruncationPolicy.dynamic(16, 64).truncation_point() == 64

    def test_modgemm_accepts_int_and_string_policy(self, rng):
        a = rng.standard_normal((100, 100))
        b = rng.standard_normal((100, 100))
        ref = a @ b
        for policy in (32, "fixed:32", "dynamic", TruncationPolicy.dynamic()):
            out = repro.modgemm(a, b, policy=policy)
            assert np.allclose(out, ref)


class TestVariantForms:
    def test_variant_accepts_function_objects(self, rng):
        from repro.core.strassen import strassen_multiply
        from repro.core.winograd import winograd_multiply

        assert resolve_variant(winograd_multiply) == "winograd"
        assert resolve_variant(strassen_multiply) == "strassen"
        a = rng.standard_normal((80, 80))
        b = rng.standard_normal((80, 80))
        assert np.array_equal(
            repro.modgemm(a, b, variant=strassen_multiply),
            repro.modgemm(a, b, variant="strassen"),
        )


class TestBaselinePolicy:
    def test_policy_object_maps_to_crossover(self, rng):
        a = rng.standard_normal((70, 70))
        b = rng.standard_normal((70, 70))
        via_policy = repro.dgemmw(a, b, policy=TruncationPolicy.fixed(32))
        via_int = repro.dgemmw(a, b, policy=32)
        assert np.array_equal(via_policy, via_int)


#: The task-graph scheduler's schedule spellings, all removed.
REMOVED_SCHEDULES = ("tasks", "tasks:2", "tasks:2x4")


class TestRemovedSchedules:
    """Only ``None``/``"sequential"`` remain; the rest name the removal."""

    MATCH = "task-graph scheduler was removed"

    @pytest.mark.parametrize("schedule", REMOVED_SCHEDULES)
    def test_rejected_everywhere(self, rng, schedule):
        a = rng.standard_normal((64, 64))
        b = rng.standard_normal((64, 64))
        with pytest.raises(PlanError, match=self.MATCH):
            GemmSession(schedule=schedule)
        with GemmSession() as s:
            with pytest.raises(PlanError, match=self.MATCH):
                s.multiply(a, b, schedule=schedule)
            with pytest.raises(PlanError, match=self.MATCH):
                s.plan(64, 64, 64, schedule=schedule)
            with pytest.raises(BatchItemError) as excinfo:
                s.multiply_many(
                    [(a, b), {"a": a, "b": b, "schedule": schedule}]
                )
            assert excinfo.value.index == 1
            assert isinstance(excinfo.value.__cause__, PlanError)
            assert self.MATCH in str(excinfo.value.__cause__)
        with pytest.raises(PlanError, match=self.MATCH):
            repro.modgemm(a, b, schedule=schedule)

    @pytest.mark.parametrize("schedule", [None, "sequential"])
    def test_sequential_matches_default(self, rng, schedule):
        a = rng.standard_normal((129, 129))
        b = rng.standard_normal((129, 129))
        ref = repro.modgemm(a, b)
        assert np.array_equal(repro.modgemm(a, b, schedule=schedule), ref)
        with GemmSession(schedule=schedule) as s:
            assert np.array_equal(s.multiply(a, b, schedule=schedule), ref)
            plan = s.plan(129, 129, 129, schedule=schedule)
            assert np.array_equal(plan.execute(a, b), ref)
            for out in s.multiply_many([(a, b)] * 3, schedule=schedule):
                assert np.array_equal(out, ref)

    def test_removed_keywords_are_gone(self, rng):
        a = rng.standard_normal((8, 8))
        with pytest.raises(TypeError):
            repro.modgemm(a, a, parallel=True)
        with pytest.raises(TypeError):
            GemmSession(max_workers=2)
        with pytest.raises(TypeError):
            GemmSession(pool=None)
        with pytest.raises(TypeError):
            repro.dgefmm(a, a, truncation=32)
        with pytest.raises(TypeError):
            repro.dgemmw(a, a, truncation=32)
